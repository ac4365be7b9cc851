// The simulator's event-queue kernel primitive.
//
// A timestamped min-priority queue with a deterministic total order:
// events pop in nondecreasing (time, seq) order, where seq is the
// strictly increasing schedule counter. Two events scheduled for the
// same instant therefore drain in FIFO schedule order on every platform
// and under every workload — the property the capture-log goldens and
// the --jobs-independent soak digests stand on (docs/SIMULATOR.md,
// "Determinism contract").
//
// Kept independent of Network so the property tests
// (tests/test_sim_kernel.cpp) can hammer the ordering invariants over
// randomized schedules without simulating traffic.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sage::sim {

/// Per-link propagation/serialization characteristics. Defaults model an
/// ideal wire (zero latency, infinite bandwidth), under which the capture
/// logs stay byte-identical to the seed simulator's (the Appendix-A pcap
/// hash goldens).
struct LinkConfig {
  std::uint64_t latency_ns = 0;
  std::uint64_t bandwidth_bps = 0;  // 0 = infinite (no serialization delay)

  /// Nanoseconds a `bytes`-long frame occupies this link.
  std::uint64_t delay_ns(std::size_t bytes) const {
    std::uint64_t d = latency_ns;
    if (bandwidth_bps > 0) {
      d += (static_cast<std::uint64_t>(bytes) * 8u * 1000000000ull) /
           bandwidth_bps;
    }
    return d;
  }
};

template <typename Payload>
class EventQueue {
 public:
  struct Entry {
    std::uint64_t time_ns = 0;
    std::uint64_t seq = 0;
    Payload payload;
  };

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Total number of events ever scheduled (seq of the next push).
  std::uint64_t scheduled() const { return next_seq_; }

  /// Timestamp of the next event to pop; meaningless when empty().
  std::uint64_t next_time_ns() const { return heap_.front().time_ns; }

  /// Schedule a payload; returns the event's tie-break sequence number.
  std::uint64_t push(std::uint64_t time_ns, Payload payload) {
    const std::uint64_t seq = next_seq_++;
    heap_.push_back(Entry{time_ns, seq, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), After{});
    return seq;
  }

  /// Remove and return the earliest event — minimal (time, seq).
  Entry pop() {
    std::pop_heap(heap_.begin(), heap_.end(), After{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    return e;
  }

  void clear() { heap_.clear(); }

 private:
  /// Max-heap comparator inverted into a min-heap on (time, seq).
  struct After {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time_ns != b.time_ns) return a.time_ns > b.time_ns;
      return a.seq > b.seq;
    }
  };

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace sage::sim
