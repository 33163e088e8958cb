#include "sim/observer.hpp"

#include <algorithm>
#include <cassert>

#include "obs/span.hpp"
#include "trace/record.hpp"

namespace craysim::sim {

namespace track = obs::track;

SimObserver::SimObserver(const SimParams& params)
    : spans_(params.spans),
      attr_(params.attribution),
      record_trace_(params.record_trace),
      counter_interval_(params.spans ? params.counter_interval : Ticks::zero()),
      block_size_(params.cache.block_size),
      disk_count_(params.disk_count) {
  if (spans_) pending_done_.resize(static_cast<std::size_t>(disk_count_));
}

void SimObserver::start(const std::vector<std::string>& names) {
  procs_.assign(names.size(), Proc{});
  if (spans_) {
    spans_->name_process(track::kProcesses, "processes (sim time)");
    spans_->name_process(track::kDisks, "disks");
    spans_->name_process(track::kIoOps, "I/O operations");
    spans_->name_process(track::kCache, "buffer cache");
    for (std::uint32_t pid = 1; pid <= names.size(); ++pid) {
      spans_->name_thread(track::kProcesses, pid,
                          names[pid - 1] + " (pid " + std::to_string(pid) + ")");
    }
    for (std::int32_t d = 0; d < disk_count_; ++d) {
      spans_->name_thread(track::kDisks, static_cast<std::uint32_t>(d),
                          "disk " + std::to_string(d));
    }
  }
  if (attr_) {
    // Register labels up front so a live mid-run scrape resolves names.
    for (std::uint32_t pid = 1; pid <= names.size(); ++pid) {
      attr_->note_process(pid, names[pid - 1]);
    }
  }
}

void SimObserver::ran(Ticks now, std::uint32_t pid, std::int32_t cpu) {
  if (spans_) spans_->begin(track::kProcesses, pid, "run", now, {{"cpu", cpu}});
}

void SimObserver::released(Ticks now, std::uint32_t pid) {
  if (spans_) spans_->end(track::kProcesses, pid, "run", now);
}

void SimObserver::finished(Ticks now, std::uint32_t pid) {
  if (spans_) spans_->instant(track::kProcesses, pid, "finished", now);
}

void SimObserver::issued(Ticks now, Ticks t, std::uint32_t pid, const workload::Request& req,
                         std::uint32_t file) {
  if (!attr_) return;
  Proc& proc = procs_[pid - 1];
  if (!proc.active) {
    // A long compute gap before this request starts a new burst epoch.
    if (proc.started && req.compute >= obs::kAttrPhaseGap) ++proc.phase;
    proc.started = true;
    proc.active = true;
    proc.issue = now;
    proc.mark = now;
    proc.comp = {};
    proc.bytes = req.length;
    proc.write = req.write;
    proc.file = file;
  } else {
    // Space-wait retry re-entering the file system: the gap since the wake
    // is scheduler (not-running) time, context switch plus ready-queue wait.
    charge(proc, obs::AttrComponent::kSched, now);
  }
  charge(proc, obs::AttrComponent::kFsCall, t);
}

void SimObserver::blocked(Ticks now, std::uint32_t pid, std::int32_t io_waits) {
  Proc& proc = procs_[pid - 1];
  proc.waiting_space = io_waits == 0;
  proc.blocked_at = now;
  if (!spans_) return;
  if (io_waits > 0) {
    spans_->begin(track::kProcesses, pid, "blocked:io", now, {{"waits", io_waits}});
  } else {
    spans_->begin(track::kProcesses, pid, "blocked:space", now);
    spans_->instant(track::kCache, 0, "space_wait", now, {{"pid", pid}});
  }
}

void SimObserver::woke(Ticks now, std::uint32_t pid, Ticks interrupt) {
  Proc& proc = procs_[pid - 1];
  // Clamp: the block began after the fs_call overhead, so an op the process
  // joined (submitted before this request) can complete inside that window,
  // sim-time "before" the block began. The span must not go backwards.
  if (spans_) {
    spans_->end(track::kProcesses, pid, proc.waiting_space ? "blocked:space" : "blocked:io",
                std::max(now, proc.blocked_at));
  }
  if (!attr_ || !proc.active) return;
  if (proc.waiting_space) {
    charge(proc, obs::AttrComponent::kSpace, now);
  } else {
    charge(proc, obs::AttrComponent::kMiss, now);
    charge(proc, obs::AttrComponent::kInterrupt, now + interrupt);
    commit(pid, proc, now + interrupt);
  }
}

void SimObserver::served(Ticks t, std::uint32_t pid, const workload::Request& req,
                         bool cache_miss, bool readahead_hit, Ticks stall, bool blocks) {
  if (record_trace_) {
    trace::TraceRecord r;
    // The RA-hit annotation is only meaningful on a hit (validate() enforces
    // the appendix's rule that a miss cannot also be a readahead hit).
    r.record_type = trace::make_record_type(/*logical=*/true, req.write, req.async,
                                            trace::DataClass::kFileData, cache_miss,
                                            readahead_hit && !cache_miss);
    r.offset = req.offset;
    r.length = req.length;
    r.start_time = t;
    r.completion_time = Ticks::zero();  // annotations, not timings
    r.operation_id = static_cast<std::uint32_t>(annotated_.size()) + 1;
    r.file_id = req.file;
    r.process_id = pid;
    r.process_time = req.compute;
    annotated_.push_back(r);
  }
  if (!attr_ || blocks) return;
  Proc& proc = procs_[pid - 1];
  if (stall > Ticks::zero()) {
    // Absorbed writes are write-behind's credit, read hits on prefetched
    // blocks the read-ahead's, and other hits the cache's own service cost.
    charge(proc,
           req.write       ? obs::AttrComponent::kAbsorb
           : readahead_hit ? obs::AttrComponent::kReadahead
                           : obs::AttrComponent::kHit,
           t + stall);
  }
  commit(pid, proc, t + stall);
}

void SimObserver::evicted(Ticks t, std::int64_t evictions) {
  if (spans_ && evictions > evictions_seen_) {
    spans_->instant(track::kCache, 0, "evict", t, {{"blocks", evictions - evictions_seen_}});
  }
  evictions_seen_ = evictions;
}

void SimObserver::submitted(Ticks now, std::uint64_t id, IoKind kind, bool write,
                            std::uint32_t file, Bytes length, const DiskService& service) {
  if (spans_) {
    const Ticks start = now + service.queue;
    const Ticks access = service.total() - service.queue;
    if (service.queue > Ticks::zero()) {
      spans_->complete(track::kDisks, service.disk, "queue", now, service.queue);
    }
    spans_->complete(track::kDisks, service.disk, write ? "write" : "read", start, access,
                     {{"bytes", length}, {"file", static_cast<std::int64_t>(file)}});
    pending_done_[service.disk].push_back(start + access);
    const bool bypass = kind == IoKind::kBypass;
    spans_->async_begin(track::kIoOps, id, "io", obs::attr_disk_kind_name(kind), now,
                        {{"file", static_cast<std::int64_t>(file)},
                         {bypass ? "bytes" : "blocks", bypass ? length : length / block_size_}});
  }
  if (attr_) {
    attr_->record_disk(kind, length,
                       {service.queue, service.overhead, service.seek, service.rotation,
                        service.transfer, service.fault});
  }
}

void SimObserver::completed(Ticks now, std::uint64_t id, IoKind kind) {
  if (spans_) spans_->async_end(track::kIoOps, id, "io", obs::attr_disk_kind_name(kind), now);
}

void SimObserver::flushed(Ticks now, std::int64_t dirty_blocks) {
  if (spans_) spans_->counter(track::kCache, "dirty_blocks", now, "blocks", dirty_blocks);
}

void SimObserver::sample(Ticks now, const BufferCache* cache, const CacheMetrics& metrics,
                         std::size_t inflight_ops) {
  if (cache) {
    spans_->counter(track::kCache, "dirty_blocks", now, "blocks", cache->dirty_block_count());
    spans_->counter(track::kCache, "clean_blocks", now, "blocks", cache->clean_block_count());
    spans_->counter(track::kCache, "resident_blocks", now, "blocks", cache->resident_blocks());
    spans_->counter(track::kCache, "readahead_hit_blocks", now, "blocks",
                    metrics.readahead_used_blocks);
    spans_->counter(track::kCache, "readahead_miss_blocks", now, "blocks",
                    metrics.readahead_fetched_blocks - metrics.readahead_used_blocks);
  }
  spans_->counter(track::kIoOps, "inflight_ops", now, "ops",
                  static_cast<std::int64_t>(inflight_ops));
  for (std::size_t d = 0; d < pending_done_.size(); ++d) {
    auto& pending = pending_done_[d];
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [now](Ticks done) { return done <= now; }),
                  pending.end());
    spans_->counter(track::kDisks, "queue_depth.disk" + std::to_string(d), now, "ops",
                    static_cast<std::int64_t>(pending.size()));
  }
}

void SimObserver::end(SimResult& result) {
  if (attr_) result.attr = attr_->summarize();
  result.annotated_trace = std::move(annotated_);
}

void SimObserver::charge(Proc& proc, obs::AttrComponent component, Ticks until) {
  proc.comp[static_cast<std::size_t>(component)] += (until - proc.mark).count();
  proc.mark = until;
}

void SimObserver::commit(std::uint32_t pid, Proc& proc, Ticks end) {
  assert(proc.mark == end && "attribution components must telescope to the op end");
  obs::AttributionLedger::OpRecord rec;
  rec.pid = pid;
  rec.file_key = proc.file;
  rec.phase = proc.phase;
  rec.bytes = proc.bytes;
  rec.write = proc.write;
  rec.total = end - proc.issue;
  rec.comp = proc.comp;
  attr_->record_op(rec);
  proc.active = false;
}

}  // namespace craysim::sim
