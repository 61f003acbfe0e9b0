// One fleet of persistent threads for one replay (DESIGN.md §4.6), fed the
// way FENIX feeds its one systolic array: back to back, never handed a task
// (§5.1–5.2). run() keeps item 0 of a round of n items for the owner and
// publishes the round as one claim word, (n << 32) | next item, that every
// thread, the owner included, claims the rest from by CAS; a thread with
// nothing to claim runs the idle work (the InferenceBatcher's batches).
// Every wait spins briefly, then parks on one futex word (std::atomic::wait)
// that notify() bumps. Only the owner (the constructing thread) calls run();
// wait_until() and notify() work anywhere.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace fenix::runtime {

class WorkerFleet {
 public:
  /// `threads` counts the owner, so threads − 1 workers start here. idle(t)
  /// is thread t's idle work (t = 0 is the owner): it does one unit and
  /// returns true, or returns false when there is none.
  WorkerFleet(std::size_t threads, std::function<bool(std::size_t)> idle)
      : idle_(std::move(idle)) {
    try {
      for (std::size_t t = 1; t < threads; ++t) {
        workers_.emplace_back([this, t] {
          wait_until([this] { return stop_.load(std::memory_order_acquire); },
                     [this, t] { return claim() || attempt(idle_, t); });
        });
      }
    } catch (...) {
      stop();
      throw;
    }
  }
  /// Finishes the idle work, then wakes and joins every worker.
  ~WorkerFleet() {
    while (attempt(idle_, 0)) {
    }
    stop();
  }
  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  /// Runs body(i) once for every i in [0, n) across the owner and the
  /// workers, and returns when all have finished; body(0) always runs on the
  /// owner. While the owner has no item to claim it runs owner_idle(), which
  /// returns whether it did work. Then rethrows the first exception a body
  /// or any idle work threw; the fleet stays usable.
  template <typename OwnerIdle>
  void run(std::size_t n, const std::function<void(std::size_t)>& body,
           const OwnerIdle& owner_idle) {
    body_ = &body;
    pending_.store(n, std::memory_order_relaxed);
    if (n > 0) {
      // Item 0 is claimed before the word is published: a spinning worker
      // would otherwise often win a one-item round, pulling the state the
      // owner just touched to another core while the owner only waits.
      next_.store((std::uint64_t{n} << 32) | 1, std::memory_order_release);
      if (n > 1) notify();
      attempt([&] {
        body(0);
        return true;
      });
      pending_.fetch_sub(1, std::memory_order_acq_rel);
    }
    wait_until([this] { return pending_.load(std::memory_order_acquire) == 0; },
               [&] { return claim() || attempt(owner_idle); });
    std::lock_guard lock(error_mutex_);
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

  /// Returns once done() holds, running work() (which returns whether it
  /// did anything) meanwhile; with no work it spins briefly, then parks
  /// until the next notify(). done() is not called again once it returns
  /// true, so it may act, e.g. retry a push.
  template <typename Done, typename Work>
  void wait_until(const Done& done, const Work& work) {
    for (unsigned spins = 0; !done();) {
      if (work()) {
        spins = 0;
      } else if (++spins < (1u << 12)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      } else {
        // Read before the last look: a notify() after it either changes the
        // word or sees this thread among the sleepers.
        const std::uint32_t seen = signal_.load();
        if (done()) return;
        if (!work()) {
          sleepers_.fetch_add(1);
          signal_.wait(seen);
          sleepers_.fetch_sub(1);
        }
        spins = 0;
      }
    }
  }

  /// Wakes every parked thread; call after publishing work or a condition.
  void notify() {
    signal_.fetch_add(1);
    if (sleepers_.load() != 0) signal_.notify_all();
  }

 private:
  /// Claims and runs one item of the live round; false when none is left.
  /// The word carries its round's item count and a round starts only once
  /// the last is exhausted, so a CAS that succeeds claims a live item.
  bool claim() {
    std::uint64_t word = next_.load(std::memory_order_acquire);
    do {
      if (static_cast<std::uint32_t>(word) == word >> 32) return false;
    } while (!next_.compare_exchange_weak(word, word + 1,
                                          std::memory_order_acquire));
    attempt([&] {
      (*body_)(static_cast<std::uint32_t>(word));
      return true;
    });
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) notify();
    return true;
  }

  /// Calls f(args...), recording an exception it throws as the fleet's
  /// first error (and as work done).
  template <typename F, typename... Args>
  bool attempt(const F& f, Args... args) {
    try {
      return f(args...);
    } catch (...) {
      std::lock_guard lock(error_mutex_);
      if (!error_) error_ = std::current_exception();
      return true;
    }
  }

  void stop() {
    stop_.store(true, std::memory_order_release);
    notify();
    for (std::thread& w : workers_) w.join();
  }

  std::function<bool(std::size_t)> idle_;
  const std::function<void(std::size_t)>* body_ = nullptr;  ///< Per round.
  alignas(64) std::atomic<std::uint64_t> next_{0};  ///< (n << 32) | item.
  std::atomic<std::size_t> pending_{0};  ///< Items not yet finished.
  alignas(64) std::atomic<std::uint32_t> signal_{0};
  std::atomic<std::uint32_t> sleepers_{0};
  std::atomic<bool> stop_{false};
  std::mutex error_mutex_;
  std::exception_ptr error_;
  std::vector<std::thread> workers_;
};

}  // namespace fenix::runtime
