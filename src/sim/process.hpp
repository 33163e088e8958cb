// Request sources for simulated processes: trace replay and (via
// workload::AppRequestGenerator) online synthetic generation.
#pragma once

#include <memory>
#include <string>

#include "trace/stream.hpp"
#include "workload/request.hpp"

namespace craysim::sim {

/// Replays the application-behaviour half of a logical trace: compute gaps
/// come from processTime, requests from (file, offset, length, flags).
/// Machine response times recorded in the trace are ignored — the simulator
/// recomputes them under its own configuration.
///
/// Records are pulled on demand from any trace::RecordSource: an in-memory
/// trace (trace::InMemorySource, shareable across sweep points), or a text
/// reader, framed binary stream, or mmap-backed reader from
/// trace::open_record_stream — so peak memory during a file replay is
/// independent of trace size.
class StreamingReplaySource final : public workload::RequestSource {
 public:
  /// Replays records of `process_id` (0 = all) pulled from `records`.
  explicit StreamingReplaySource(std::unique_ptr<trace::RecordSource> records,
                                 std::uint32_t process_id = 0);

  std::optional<workload::Request> next() override;

  /// Records pulled from the source so far (including filtered-out ones).
  [[nodiscard]] std::int64_t records_consumed() const { return records_consumed_; }

 private:
  std::unique_ptr<trace::RecordSource> records_;
  std::uint32_t process_id_;
  std::int64_t records_consumed_ = 0;
};

}  // namespace craysim::sim
