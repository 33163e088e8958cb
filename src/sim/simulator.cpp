#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

#include "util/error.hpp"
#include "workload/generator.hpp"

namespace craysim::sim {

Simulator::Simulator(SimParams params) : params_(std::move(params)) {
  if (params_.cpu_count < 1) throw ConfigError("cpu_count must be >= 1");
  cpus_.resize(static_cast<std::size_t>(params_.cpu_count));
  disk_ = std::make_unique<DiskModel>(params_.disk, params_.position, params_.disk_count,
                                      params_.disk_queueing, params_.seed ^ 0xd15c,
                                      params_.faults);
  if (params_.spans || params_.attribution || params_.record_trace) {
    observer_ = std::make_unique<SimObserver>(params_);
  }
  if (params_.use_cache) {
    cache_ = std::make_unique<BufferCache>(params_.cache, result_.cache);
  }
  result_.logical_rate = BinnedSeries(params_.series_bin);
  result_.disk_rate = BinnedSeries(params_.series_bin);
  result_.disk_read_rate = BinnedSeries(params_.series_bin);
  result_.disk_write_rate = BinnedSeries(params_.series_bin);
  events_.reserve(256);
  inflight_.reserve(256);
}

std::uint32_t Simulator::add_process(std::string name,
                                     std::unique_ptr<workload::RequestSource> source) {
  Proc proc;
  proc.pid = static_cast<std::uint32_t>(procs_.size()) + 1;
  proc.name = std::move(name);
  proc.source = std::move(source);
  procs_.push_back(std::move(proc));
  return procs_.back().pid;
}

std::uint32_t Simulator::add_app(const workload::AppProfile& profile) {
  workload::AppProfile copy = profile;
  copy.seed = profile.seed + 0x9e37 * (procs_.size() + 1);
  std::string name = copy.name;  // read before the move below
  return add_process(std::move(name),
                     std::make_unique<workload::AppRequestGenerator>(std::move(copy)));
}

Ticks Simulator::hit_delay(Bytes bytes) const {
  return params_.cache.hit_setup +
         Ticks::from_us(params_.cache.hit_us_per_kb * static_cast<double>(bytes) / 1024.0);
}

void Simulator::push_event(Ticks time, EventKind kind, std::uint64_t arg) {
  events_.push_back(Event{time, next_seq_++, kind, arg});
  std::push_heap(events_.begin(), events_.end(), std::greater<>{});
}

bool Simulator::drained() const {
  return finished_ >= procs_.size() && inflight_.empty() &&
         (!cache_ || cache_->dirty_block_count() == 0);
}

void Simulator::note_evictions(Ticks t) {
  if (observer_) observer_->evicted(t, result_.cache.evictions);
}

SimResult Simulator::run() {
  if (procs_.empty()) throw ConfigError("simulation has no processes");
  if (observer_) {
    std::vector<std::string> names;
    for (const Proc& proc : procs_) names.push_back(proc.name);
    observer_->start(names);
  }
  now_ = Ticks::zero();
  for (Cpu& cpu : cpus_) {
    cpu.running = kNoProcess;
    cpu.idle = true;
    cpu.idle_since = Ticks::zero();
  }
  for (Proc& proc : procs_) {
    advance_to_next_request(proc);
    proc.state = PState::kReady;
    ready_.push_back(proc.pid);
  }
  // The first counter sample goes ahead of everything else at time zero.
  if (observer_ && observer_->counter_interval() > Ticks::zero()) {
    push_event(Ticks::zero(), EventKind::kCounterTick, 0);
  }
  push_event(Ticks::zero(), EventKind::kDispatch, 0);
  push_event(params_.cache.flush_period, EventKind::kFlushTick, 0);

  // Safety valve against configuration bugs: no workload in this study runs
  // longer than a few simulated hours.
  const Ticks wall_limit = Ticks::from_seconds(1e6);

  // Cooperative cancellation: poll the token once per kCancelStride events.
  // The stride keeps the steady_clock read off the per-event path; with no
  // token the whole mechanism is one predicted branch per event.
  constexpr std::uint32_t kCancelStride = 4096;
  std::uint32_t cancel_countdown = kCancelStride;

  // Run until every process has finished AND the cache has drained its
  // dirty data (write-behind means data can outlive its writer).
  while (!events_.empty() && !drained()) {
    if (params_.cancel != nullptr && --cancel_countdown == 0) {
      cancel_countdown = kCancelStride;
      if (params_.cancel->cancelled()) {
        throw CancelledError("simulation abandoned at t=" +
                             std::to_string(now_.seconds()) + " s (" +
                             (params_.cancel->deadline_expired() ? "deadline expired"
                                                                 : "cancel requested") +
                             ")");
      }
    }
    std::pop_heap(events_.begin(), events_.end(), std::greater<>{});
    const Event event = events_.back();
    events_.pop_back();
    assert(event.time >= now_);
    now_ = event.time;
    if (now_ > wall_limit) throw Error("simulation exceeded wall-clock safety limit");
    switch (event.kind) {
      case EventKind::kDispatch:
        on_dispatch(now_);
        break;
      case EventKind::kSliceEnd:
        on_slice_end(now_, static_cast<std::uint32_t>(event.arg));
        break;
      case EventKind::kIoDone:
        on_io_done(now_, event.arg);
        break;
      case EventKind::kFlushTick:
        on_flush_tick(now_);
        break;
      case EventKind::kCounterTick:
        on_counter_tick(now_);
        break;
    }
  }
  if (finished_ < procs_.size()) throw Error("simulation stalled: event queue drained early");

  for (const Proc& proc : procs_) {
    ProcessResult pr;
    pr.pid = proc.pid;
    pr.name = proc.name;
    pr.finish_time = proc.finish_time;
    pr.cpu_time = proc.cpu_done;
    pr.blocked_time = proc.blocked_total;
    pr.io_count = proc.io_count;
    pr.bytes_read = proc.bytes_read;
    pr.bytes_written = proc.bytes_written;
    result_.processes.push_back(pr);
    result_.total_wall = std::max(result_.total_wall, proc.finish_time);
  }
  // CPUs that went idle before the last process finished stay idle to the
  // end of the run; close their idle intervals at total_wall.
  for (Cpu& cpu : cpus_) {
    if (cpu.idle && cpu.idle_since < result_.total_wall) {
      result_.cpu_idle += result_.total_wall - cpu.idle_since;
    }
  }
  result_.disk = disk_->metrics();
  if (observer_) observer_->end(result_);
  return std::move(result_);
}

void Simulator::advance_to_next_request(Proc& proc) {
  proc.pending = proc.source->next();
  proc.remaining_compute = proc.pending ? proc.pending->compute : proc.source->final_compute();
}

void Simulator::account_idle_until(Ticks now, std::int32_t cpu) {
  Cpu& state = cpus_[static_cast<std::size_t>(cpu)];
  if (state.idle) {
    result_.cpu_idle += now - state.idle_since;
    state.idle = false;
  }
}

void Simulator::release_cpu(Ticks now, Proc& proc) {
  if (proc.cpu < 0) return;
  Cpu& state = cpus_[static_cast<std::size_t>(proc.cpu)];
  assert(state.running == proc.pid);
  if (observer_) observer_->released(now, proc.pid);
  state.running = kNoProcess;
  state.idle = true;
  state.idle_since = now;
  proc.cpu = -1;
}

void Simulator::on_dispatch(Ticks now) {
  // Fill every free CPU with a ready process.
  while (!ready_.empty()) {
    std::int32_t free_cpu = -1;
    for (std::size_t i = 0; i < cpus_.size(); ++i) {
      if (cpus_[i].running == kNoProcess) {
        free_cpu = static_cast<std::int32_t>(i);
        break;
      }
    }
    if (free_cpu < 0) return;
    const std::uint32_t pid = ready_.front();
    ready_.pop_front();
    Proc& proc = procs_[pid - 1];
    assert(proc.state == PState::kReady);
    account_idle_until(now, free_cpu);
    cpus_[static_cast<std::size_t>(free_cpu)].running = pid;
    proc.cpu = free_cpu;
    proc.state = PState::kRunning;
    if (observer_) observer_->ran(now, pid, free_cpu);
    result_.cpu_busy += params_.scheduler.context_switch;
    result_.overhead_time += params_.scheduler.context_switch;
    proc.slice_len = std::min(params_.scheduler.quantum, proc.remaining_compute);
    push_event(now + params_.scheduler.context_switch + proc.slice_len, EventKind::kSliceEnd,
               pid);
  }
}

void Simulator::on_slice_end(Ticks now, std::uint32_t pid) {
  Proc& proc = procs_[pid - 1];
  assert(proc.state == PState::kRunning && proc.cpu >= 0 &&
         cpus_[static_cast<std::size_t>(proc.cpu)].running == pid);
  result_.cpu_busy += proc.slice_len;
  proc.cpu_done += proc.slice_len;
  proc.remaining_compute -= proc.slice_len;

  if (proc.remaining_compute > Ticks::zero()) {
    // Quantum expired mid-compute.
    if (ready_.empty()) {
      proc.slice_len = std::min(params_.scheduler.quantum, proc.remaining_compute);
      push_event(now + proc.slice_len, EventKind::kSliceEnd, pid);
    } else {
      proc.state = PState::kReady;
      ready_.push_back(pid);
      release_cpu(now, proc);
      push_event(now, EventKind::kDispatch, 0);
    }
    return;
  }

  if (!proc.pending) {
    finish_process(now, proc);
    return;
  }
  issue_io(now, pid);
}

void Simulator::finish_process(Ticks now, Proc& proc) {
  proc.state = PState::kFinished;
  proc.finish_time = now;
  ++finished_;
  release_cpu(now, proc);
  if (observer_) observer_->finished(now, proc.pid);
  push_event(now, EventKind::kDispatch, 0);
}

void Simulator::continue_running(Ticks now, std::uint32_t pid, Ticks extra_stall) {
  Proc& proc = procs_[pid - 1];
  assert(proc.state == PState::kRunning);
  result_.cpu_busy += extra_stall;  // CPU held while the cache copy completes
  advance_to_next_request(proc);
  proc.slice_len = std::min(params_.scheduler.quantum, proc.remaining_compute);
  push_event(now + extra_stall + proc.slice_len, EventKind::kSliceEnd, pid);
}

void Simulator::block(Ticks now, Proc& proc, std::int32_t io_waits) {
  proc.state = io_waits > 0 ? PState::kBlockedIo : PState::kBlockedSpace;
  proc.wait_count = io_waits;
  proc.blocked_since = now;
  release_cpu(now, proc);
  if (observer_) observer_->blocked(now, proc.pid, io_waits);
  push_event(now, EventKind::kDispatch, 0);
  if (io_waits == 0) {
    ++result_.cache.space_waits;
    space_waiters_.push_back(proc.pid);
    trigger_flush(now);
  }
}

void Simulator::wake(Ticks now, Proc& proc, Ticks interrupt) {
  if (observer_) observer_->woke(now, proc.pid, interrupt);
  proc.blocked_total += now - proc.blocked_since;
  if (proc.state == PState::kBlockedIo) advance_to_next_request(proc);
  proc.state = PState::kReady;
  ready_.push_back(proc.pid);
}

void Simulator::record_disk_traffic(Ticks start, Ticks done, Bytes bytes, bool write) {
  const auto amount = static_cast<double>(bytes);
  result_.disk_rate.add_spread(start, done - start, amount);
  (write ? result_.disk_write_rate : result_.disk_read_rate)
      .add_spread(start, done - start, amount);
}

void Simulator::submit(std::uint64_t id, Ticks now, IoKind kind, bool write, std::uint32_t file,
                       Bytes offset, Bytes length, std::uint32_t waiter) {
  DiskService service;
  const Ticks done = disk_->submit(now, file, offset, length, write, &service);
  record_disk_traffic(now, done, length, write);
  const Bytes bs = params_.cache.block_size;
  IoOp& op = inflight_.emplace(id);
  op.kind = kind;
  op.run = BlockRun{file, offset / bs, length / bs};
  if (waiter != kNoProcess) op.waiters.push_back(waiter);
  if (observer_) observer_->submitted(now, id, kind, write, file, length, service);
  push_event(done, EventKind::kIoDone, id);
}

void Simulator::issue_io(Ticks now, std::uint32_t pid) {
  Proc& proc = procs_[pid - 1];
  const workload::Request req = *proc.pending;
  result_.cpu_busy += params_.overhead.fs_call;
  result_.overhead_time += params_.overhead.fs_call;
  const Ticks t = now + params_.overhead.fs_call;
  const std::uint32_t gfile = global_file(pid, req.file);
  if (observer_) observer_->issued(now, t, pid, req, gfile);

  // What the request meets on its path below. A request with no cache, or
  // larger than it, bypasses it and goes straight to disk.
  bool bypass = !cache_;
  bool cache_miss = true;
  bool readahead_hit = false;
  bool absorbed = false;
  Ticks stall = Ticks::zero();
  std::int32_t waits = 0;
  const std::uint32_t waiter = req.async ? kNoProcess : pid;
  const Bytes bs = params_.cache.block_size;
  if (cache_ && !req.write) {
    const std::uint64_t first_op = next_op_;
    auto plan = cache_->plan_read(pid, gfile, req.offset, req.length, first_op);
    if (plan.space_wait) {
      block(t, proc, 0);
      return;
    }
    note_evictions(t);
    bypass = plan.bypass;
    if (!bypass) {
      cache_miss = !plan.full_hit;
      readahead_hit = plan.readahead_hit;
      next_op_ += plan.fetch_runs.size();
      for (std::size_t i = 0; i < plan.fetch_runs.size(); ++i) {
        // Submit under the id the cache tagged the run's blocks with.
        const BlockRun& run = plan.fetch_runs[i];
        submit(first_op + i, t, IoKind::kFetch, /*write=*/false, run.file,
               run.first_block * bs, run.bytes(bs), waiter);
        if (!req.async) ++waits;
      }
      if (!req.async) {
        for (const std::uint64_t join_id : plan.join_ops) {
          IoOp* join = inflight_.find(join_id);
          if (join == nullptr) continue;  // completed this very tick
          join->waiters.push_back(pid);
          ++waits;
        }
      }
      if (plan.readahead) {
        const std::uint64_t ra_id = next_op_;
        if (auto run = cache_->try_issue_readahead(pid, *plan.readahead, ra_id)) {
          ++next_op_;
          submit(ra_id, t, IoKind::kReadahead, /*write=*/false, run->file,
                 run->first_block * bs, run->bytes(bs), kNoProcess);
        }
        note_evictions(t);
      }
      if (waits == 0 && plan.full_hit) stall = hit_delay(req.length);
    }
  } else if (cache_) {
    auto plan = cache_->plan_write(pid, gfile, req.offset, req.length, next_op_,
                                   params_.cache.write_behind, t);
    if (plan.space_wait) {
      block(t, proc, 0);
      return;
    }
    note_evictions(t);
    bypass = plan.bypass;
    absorbed = plan.absorbed;
    if (absorbed) {
      cache_miss = false;
      stall = hit_delay(req.length);
    }
    for (const BlockRun& run : plan.writethrough_runs) {
      submit(next_op_++, t, IoKind::kWriteThrough, /*write=*/true, run.file,
             run.first_block * bs, run.bytes(bs), waiter);
      if (!req.async) ++waits;
    }
  }
  if (bypass) {
    submit(next_op_++, t, IoKind::kBypass, req.write, gfile, req.offset, req.length, waiter);
    if (!req.async) waits = 1;
  }

  result_.logical_rate.add(t, static_cast<double>(req.length));
  ++proc.io_count;
  (req.write ? proc.bytes_written : proc.bytes_read) += req.length;
  if (observer_) observer_->served(t, pid, req, cache_miss, readahead_hit, stall, waits > 0);
  if (waits == 0) {
    continue_running(t, pid, stall);
  } else {
    block(t, proc, waits);
  }
  if (absorbed && cache_->over_watermark()) trigger_flush(t);
}

void Simulator::on_io_done(Ticks now, std::uint64_t op_id) {
  IoOp* found = inflight_.find(op_id);
  if (found == nullptr) return;
  IoOp op = std::move(*found);
  inflight_.erase(op_id);
  if (observer_) observer_->completed(now, op_id, op.kind);

  switch (op.kind) {  // without a cache every op is a bypass
    case IoKind::kFetch:
    case IoKind::kReadahead:
      cache_->fetch_complete(op.run);
      break;
    case IoKind::kFlush:
    case IoKind::kWriteThrough:
      cache_->flush_complete(op.run);
      break;
    case IoKind::kBypass:
      break;
  }
  for (const std::uint32_t pid : op.waiters) {
    Proc& proc = procs_[pid - 1];
    if (proc.state != PState::kBlockedIo) continue;
    if (--proc.wait_count == 0) {
      const Ticks interrupt = params_.overhead.interrupt;
      result_.overhead_time += interrupt;
      wake(now, proc, interrupt);
      push_event(now + interrupt, EventKind::kDispatch, 0);
    }
  }
  wake_space_waiters(now);
}

void Simulator::wake_space_waiters(Ticks now) {
  if (space_waiters_.empty()) return;
  for (const std::uint32_t pid : space_waiters_) {
    Proc& proc = procs_[pid - 1];
    if (proc.state == PState::kBlockedSpace) wake(now, proc, Ticks::zero());
  }
  space_waiters_.clear();
  push_event(now, EventKind::kDispatch, 0);
}

void Simulator::trigger_flush(Ticks now, Ticks min_age) {
  if (!cache_) return;
  const auto runs = cache_->collect_flush_batch(params_.cache.max_flush_batch_blocks,
                                                params_.cache.max_flush_run_blocks, now, min_age);
  const Bytes bs = params_.cache.block_size;
  for (const BlockRun& run : runs) {
    submit(next_op_++, now, IoKind::kFlush, /*write=*/true, run.file, run.first_block * bs,
           run.bytes(bs), kNoProcess);
  }
  if (observer_) observer_->flushed(now, cache_->dirty_block_count());
}

void Simulator::on_flush_tick(Ticks now) {
  // Periodic flushes honor the delayed-write age; once all processes have
  // finished, drain everything regardless of age.
  const Ticks age = finished_ >= procs_.size() ? Ticks::zero() : params_.cache.delayed_write_age;
  if (cache_ && cache_->dirty_block_count() > 0) trigger_flush(now, age);
  // Keep ticking while the workload runs; afterwards, only until the
  // remaining dirty data has drained to disk.
  if (!drained()) push_event(now + params_.cache.flush_period, EventKind::kFlushTick, 0);
}

void Simulator::on_counter_tick(Ticks now) {
  // Telemetry only: samples state, mutates nothing, so the event's presence
  // cannot change the simulation outcome (only event seq numbers shift, and
  // (time, seq) relative order among real events is preserved).
  observer_->sample(now, cache_.get(), result_.cache, inflight_.size());
  if (!drained()) push_event(now + observer_->counter_interval(), EventKind::kCounterTick, 0);
}

}  // namespace craysim::sim
