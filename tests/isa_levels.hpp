// The kernel rungs a test repeats its checks at, under kernels::ScopedIsaCap.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "nn/kernels.hpp"

namespace fenix::nn {

/// Every rung up to the host's, lowest first; prints which rungs `what` runs.
inline std::vector<kernels::Isa> host_isa_levels(const char* what) {
  std::vector<kernels::Isa> levels;
  std::string names;
  for (kernels::Isa isa : {kernels::Isa::kScalar, kernels::Isa::kAvx2,
                           kernels::Isa::kAvx512, kernels::Isa::kAmx}) {
    if (isa <= kernels::host_isa()) {
      levels.push_back(isa);
      names += std::string(" ") + kernels::isa_name(isa);
    }
  }
  std::cout << "[ rungs    ] " << what << ":" << names << "\n";
  return levels;
}

}  // namespace fenix::nn
