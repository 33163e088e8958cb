#include "obs/attr.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/sanitize.hpp"

namespace craysim::obs {

namespace {

constexpr const char* kComponentNames[kAttrOpComponents] = {
    "fs_call", "hit", "readahead", "absorb", "miss", "space", "interrupt", "sched"};
constexpr const char* kDiskKindNames[kAttrDiskKinds] = {
    "fetch", "readahead", "flush", "writethrough", "bypass"};
constexpr const char* kDiskComponentNames[kAttrDiskComponents] = {
    "queue", "overhead", "seek", "rotation", "transfer", "fault"};

std::size_t latency_bucket(Ticks latency) {
  const double us = latency.microseconds();
  for (std::size_t i = 0; i < kAttrLatencyBoundsUs.size(); ++i) {
    if (us <= static_cast<double>(kAttrLatencyBoundsUs[i])) return i;
  }
  return kAttrLatencyBoundsUs.size();
}

std::string latency_bucket_name(std::size_t bucket) {
  if (bucket >= kAttrLatencyBoundsUs.size()) return "le_inf";
  return "le_" + std::to_string(kAttrLatencyBoundsUs[bucket]);
}

std::uint64_t mix(std::uint64_t key) {
  key ^= key >> 33;
  key *= 0x9E3779B97F4A7C15ULL;
  key ^= key >> 29;
  return key;
}

}  // namespace

const char* attr_component_name(AttrComponent component) {
  return kComponentNames[static_cast<std::size_t>(component)];
}

const char* attr_disk_kind_name(AttrDiskKind kind) {
  return kDiskKindNames[static_cast<std::size_t>(kind)];
}

const char* attr_disk_component_name(AttrDiskComponent component) {
  return kDiskComponentNames[static_cast<std::size_t>(component)];
}

std::size_t attr_size_bucket(Bytes length) {
  Bytes bound = 512;
  for (std::size_t i = 0; i + 1 < kAttrSizeBuckets; ++i) {
    if (length <= bound) return i;
    bound *= 2;
  }
  return kAttrSizeBuckets - 1;  // > 16 MiB
}

std::string attr_size_bucket_name(std::size_t bucket) {
  if (bucket == 0) return "le_512B";
  if (bucket >= kAttrSizeBuckets - 1) return "gt_16MiB";
  const Bytes bound = Bytes{512} << bucket;
  if (bound >= kMiB) return "le_" + std::to_string(bound / kMiB) + "MiB";
  return "le_" + std::to_string(bound / kKiB) + "KiB";
}

// ---- Ledger ----------------------------------------------------------------

void AttributionLedger::note_process(std::uint32_t pid, std::string name) {
  const std::lock_guard<std::mutex> lock(label_mutex_);
  for (auto& [existing, label] : labels_) {
    if (existing == pid) {
      label = std::move(name);
      return;
    }
  }
  labels_.emplace_back(pid, std::move(name));
}

namespace {

// Deduces the (private) Cell type, so the probe loop can live outside the
// class without befriending every table size.
template <typename Table, typename CellT>
CellT* claim_slot(Table& table, CellT& overflow, std::uint64_t key) {
  const std::size_t n = table.size();
  const std::uint64_t stored = key + 1;  // 0 marks an empty slot
  std::size_t index = static_cast<std::size_t>(mix(key)) % n;
  for (std::size_t probe = 0; probe < n; ++probe) {
    auto& cell = table[index];
    std::uint64_t seen = cell.key.load(std::memory_order_acquire);
    if (seen == stored) return &cell;
    if (seen == 0 &&
        cell.key.compare_exchange_strong(seen, stored, std::memory_order_acq_rel)) {
      return &cell;
    }
    if (seen == stored) return &cell;  // lost the CAS to the same key
    index = (index + 1) % n;
  }
  return &overflow;
}

}  // namespace

AttributionLedger::Cell& AttributionLedger::claim(std::array<Cell, kFileSlots>& table,
                                                  Cell& overflow, std::uint64_t key) {
  return *claim_slot(table, overflow, key);
}

AttributionLedger::Cell& AttributionLedger::claim_small(std::array<Cell, kProcSlots>& table,
                                                        Cell& overflow, std::uint64_t key) {
  return *claim_slot(table, overflow, key);
}

void AttributionLedger::add_op(Cell& cell, const OpRecord& op) {
  cell.ops.fetch_add(1, std::memory_order_relaxed);
  if (op.write) cell.write_ops.fetch_add(1, std::memory_order_relaxed);
  cell.bytes.fetch_add(op.bytes, std::memory_order_relaxed);
  cell.total.fetch_add(op.total.count(), std::memory_order_relaxed);
  for (std::size_t c = 0; c < kAttrOpComponents; ++c) {
    cell.comp[c].fetch_add(op.comp[c], std::memory_order_relaxed);
  }
}

void AttributionLedger::record_op(const OpRecord& op) {
#ifndef NDEBUG
  std::int64_t sum = 0;
  for (const std::int64_t c : op.comp) sum += c;
  assert(sum == op.total.count() && "attribution components must sum to op latency");
#endif
  add_op(total_, op);
  add_op(claim(files_, files_overflow_, op.file_key), op);
  add_op(claim_small(procs_, procs_overflow_, op.pid), op);
  add_op(phases_[std::min<std::size_t>(op.phase, kAttrPhaseSlots - 1)], op);
  add_op(sizes_[attr_size_bucket(op.bytes)], op);
  latency_[latency_bucket(op.total)].fetch_add(1, std::memory_order_relaxed);
  for (std::size_t c = 0; c < kAttrOpComponents; ++c) {
    if (op.comp[c] > 0) {
      comp_hist_[c][latency_bucket(Ticks(op.comp[c]))].fetch_add(
          1, std::memory_order_relaxed);
    }
  }
}

void AttributionLedger::record_disk(AttrDiskKind kind, Bytes bytes,
                                    const AttrDiskBreakdown& breakdown) {
  auto& cell = disks_[static_cast<std::size_t>(kind)];
  cell.ops.fetch_add(1, std::memory_order_relaxed);
  cell.bytes.fetch_add(bytes, std::memory_order_relaxed);
  cell.total.fetch_add(breakdown.total().count(), std::memory_order_relaxed);
  const std::array<Ticks, kAttrDiskComponents> parts = {
      breakdown.queue,    breakdown.overhead, breakdown.seek,
      breakdown.rotation, breakdown.transfer, breakdown.fault};
  for (std::size_t c = 0; c < kAttrDiskComponents; ++c) {
    cell.comp[c].fetch_add(parts[c].count(), std::memory_order_relaxed);
  }
}

AttrSummary AttributionLedger::summarize() const {
  const auto snap = [](const Cell& cell, std::string key) {
    AttrEntry entry;
    entry.key = std::move(key);
    entry.ops = cell.ops.load(std::memory_order_relaxed);
    entry.write_ops = cell.write_ops.load(std::memory_order_relaxed);
    entry.bytes = cell.bytes.load(std::memory_order_relaxed);
    entry.total_ticks = cell.total.load(std::memory_order_relaxed);
    for (std::size_t c = 0; c < kAttrOpComponents; ++c) {
      entry.comp[c] = cell.comp[c].load(std::memory_order_relaxed);
    }
    return entry;
  };
  const auto blame_order = [](std::vector<AttrEntry>& entries) {
    std::sort(entries.begin(), entries.end(), [](const AttrEntry& a, const AttrEntry& b) {
      if (a.total_ticks != b.total_ticks) return a.total_ticks > b.total_ticks;
      return a.key < b.key;
    });
  };

  AttrSummary summary;
  summary.enabled = true;
  summary.total = snap(total_, "total");

  for (const auto& cell : files_) {
    const std::uint64_t stored = cell.key.load(std::memory_order_acquire);
    if (stored == 0) continue;
    const std::uint64_t key = stored - 1;
    std::string label = "p";
    label.append(std::to_string(key >> 20)).append(":f").append(std::to_string(key & 0xFFFFF));
    summary.files.push_back(snap(cell, std::move(label)));
  }
  if (files_overflow_.ops.load(std::memory_order_relaxed) != 0) {
    summary.files.push_back(snap(files_overflow_, "other"));
  }
  blame_order(summary.files);

  std::map<std::uint32_t, std::string> names;
  {
    const std::lock_guard<std::mutex> lock(label_mutex_);
    for (const auto& [pid, label] : labels_) names[pid] = label;
  }
  for (const auto& cell : procs_) {
    const std::uint64_t stored = cell.key.load(std::memory_order_acquire);
    if (stored == 0) continue;
    const auto pid = static_cast<std::uint32_t>(stored - 1);
    const auto it = names.find(pid);
    summary.procs.push_back(
        snap(cell, it != names.end() ? it->second : "pid" + std::to_string(pid)));
  }
  if (procs_overflow_.ops.load(std::memory_order_relaxed) != 0) {
    summary.procs.push_back(snap(procs_overflow_, "other"));
  }
  blame_order(summary.procs);

  for (std::size_t i = 0; i < kAttrPhaseSlots; ++i) {
    if (phases_[i].ops.load(std::memory_order_relaxed) == 0) continue;
    std::string key = "phase" + std::to_string(i);
    if (i == kAttrPhaseSlots - 1) key += "+";
    summary.phases.push_back(snap(phases_[i], std::move(key)));
  }
  for (std::size_t i = 0; i < kAttrSizeBuckets; ++i) {
    if (sizes_[i].ops.load(std::memory_order_relaxed) == 0) continue;
    summary.sizes.push_back(snap(sizes_[i], attr_size_bucket_name(i)));
  }
  for (std::size_t k = 0; k < kAttrDiskKinds; ++k) {
    const auto& cell = disks_[k];
    if (cell.ops.load(std::memory_order_relaxed) == 0) continue;
    AttrDiskEntry entry;
    entry.kind = kDiskKindNames[k];
    entry.ops = cell.ops.load(std::memory_order_relaxed);
    entry.bytes = cell.bytes.load(std::memory_order_relaxed);
    entry.total_ticks = cell.total.load(std::memory_order_relaxed);
    for (std::size_t c = 0; c < kAttrDiskComponents; ++c) {
      entry.comp[c] = cell.comp[c].load(std::memory_order_relaxed);
    }
    summary.disks.push_back(std::move(entry));
  }

  for (std::size_t i = 0; i < kAttrLatencyBuckets; ++i) {
    summary.latency[i] = latency_[i].load(std::memory_order_relaxed);
    for (std::size_t c = 0; c < kAttrOpComponents; ++c) {
      summary.comp_hist[c][i] = comp_hist_[c][i].load(std::memory_order_relaxed);
    }
  }
  return summary;
}

// ---- Summary algebra -------------------------------------------------------

namespace {

void merge_entry(AttrEntry& into, const AttrEntry& from) {
  into.ops += from.ops;
  into.write_ops += from.write_ops;
  into.bytes += from.bytes;
  into.total_ticks += from.total_ticks;
  for (std::size_t c = 0; c < kAttrOpComponents; ++c) into.comp[c] += from.comp[c];
}

/// Merges by key; unseen keys append, so `into`'s ordering is preserved and
/// new rows keep `from`'s relative order. Callers re-sort blame-ordered lists.
void merge_entries(std::vector<AttrEntry>& into, const std::vector<AttrEntry>& from) {
  for (const AttrEntry& entry : from) {
    auto it = std::find_if(into.begin(), into.end(),
                           [&](const AttrEntry& e) { return e.key == entry.key; });
    if (it == into.end()) {
      into.push_back(entry);
    } else {
      merge_entry(*it, entry);
    }
  }
}

}  // namespace

void merge_attr_summary(AttrSummary& into, const AttrSummary& from) {
  if (!from.enabled) return;
  if (!into.enabled) {
    into.enabled = true;
    into.total.key = "total";
  }
  merge_entry(into.total, from.total);
  merge_entries(into.files, from.files);
  merge_entries(into.procs, from.procs);
  merge_entries(into.phases, from.phases);
  merge_entries(into.sizes, from.sizes);
  for (const AttrDiskEntry& entry : from.disks) {
    auto it = std::find_if(into.disks.begin(), into.disks.end(),
                           [&](const AttrDiskEntry& e) { return e.kind == entry.kind; });
    if (it == into.disks.end()) {
      into.disks.push_back(entry);
    } else {
      it->ops += entry.ops;
      it->bytes += entry.bytes;
      it->total_ticks += entry.total_ticks;
      for (std::size_t c = 0; c < kAttrDiskComponents; ++c) it->comp[c] += entry.comp[c];
    }
  }
  for (std::size_t i = 0; i < kAttrLatencyBuckets; ++i) {
    into.latency[i] += from.latency[i];
    for (std::size_t c = 0; c < kAttrOpComponents; ++c) {
      into.comp_hist[c][i] += from.comp_hist[c][i];
    }
  }
  const auto blame_order = [](std::vector<AttrEntry>& entries) {
    std::sort(entries.begin(), entries.end(), [](const AttrEntry& a, const AttrEntry& b) {
      if (a.total_ticks != b.total_ticks) return a.total_ticks > b.total_ticks;
      return a.key < b.key;
    });
  };
  blame_order(into.files);
  blame_order(into.procs);
}

// ---- JSON / JSONL ----------------------------------------------------------

namespace {

constexpr std::int64_t kUsPerTick = 10;

void write_entry_fields(std::ostream& out, const AttrEntry& entry) {
  out << "\"ops\":" << entry.ops << ",\"write_ops\":" << entry.write_ops
      << ",\"bytes\":" << entry.bytes << ",\"io_time_us\":" << entry.total_ticks * kUsPerTick
      << ",\"components\":{";
  for (std::size_t c = 0; c < kAttrOpComponents; ++c) {
    if (c != 0) out << ',';
    out << '"' << kComponentNames[c] << "\":" << entry.comp[c] * kUsPerTick;
  }
  out << '}';
}

void write_entry(std::ostream& out, const AttrEntry& entry) {
  out << "{\"key\":\"" << json_escape(entry.key) << "\",";
  write_entry_fields(out, entry);
  out << '}';
}

void write_disk_fields(std::ostream& out, const AttrDiskEntry& entry) {
  out << "\"kind\":\"" << json_escape(entry.kind) << "\",\"ops\":" << entry.ops
      << ",\"bytes\":" << entry.bytes << ",\"total_us\":" << entry.total_ticks * kUsPerTick
      << ",\"components\":{";
  for (std::size_t c = 0; c < kAttrDiskComponents; ++c) {
    if (c != 0) out << ',';
    out << '"' << kDiskComponentNames[c] << "\":" << entry.comp[c] * kUsPerTick;
  }
  out << '}';
}

void write_latency_buckets(std::ostream& out,
                           const std::array<std::int64_t, kAttrLatencyBuckets>& counts) {
  out << '{';
  for (std::size_t i = 0; i < kAttrLatencyBuckets; ++i) {
    if (i != 0) out << ',';
    out << '"' << latency_bucket_name(i) << "\":" << counts[i];
  }
  out << '}';
}

void write_entry_list(std::ostream& out, const char* name,
                      const std::vector<AttrEntry>& entries) {
  out << '"' << name << "\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i != 0) out << ',';
    write_entry(out, entries[i]);
  }
  out << ']';
}

}  // namespace

void write_attr_json(std::ostream& out, const AttrSummary& summary) {
  out << "{\"craysim_attribution\":1,\"enabled\":" << (summary.enabled ? "true" : "false")
      << ",\"total\":";
  write_entry(out, summary.total);
  out << ',';
  write_entry_list(out, "files", summary.files);
  out << ',';
  write_entry_list(out, "procs", summary.procs);
  out << ',';
  write_entry_list(out, "phases", summary.phases);
  out << ',';
  write_entry_list(out, "sizes", summary.sizes);
  out << ",\"disks\":[";
  for (std::size_t i = 0; i < summary.disks.size(); ++i) {
    if (i != 0) out << ',';
    out << '{';
    write_disk_fields(out, summary.disks[i]);
    out << '}';
  }
  out << "],\"latency_us\":";
  write_latency_buckets(out, summary.latency);
  out << ",\"component_hist_us\":{";
  for (std::size_t c = 0; c < kAttrOpComponents; ++c) {
    if (c != 0) out << ',';
    out << '"' << kComponentNames[c] << "\":";
    write_latency_buckets(out, summary.comp_hist[c]);
  }
  out << "}}";
}

void write_attr_jsonl(std::ostream& out, const AttrSummary& summary,
                      std::string_view point_label) {
  const std::string point = json_escape(point_label);
  const auto scope_lines = [&](const char* type, const std::vector<AttrEntry>& entries) {
    for (const AttrEntry& entry : entries) {
      out << "{\"type\":\"" << type << "\",\"point\":\"" << point << "\",\"key\":\""
          << json_escape(entry.key) << "\",";
      write_entry_fields(out, entry);
      out << "}\n";
    }
  };
  out << "{\"type\":\"total\",\"point\":\"" << point << "\",";
  write_entry_fields(out, summary.total);
  out << "}\n";
  scope_lines("file", summary.files);
  scope_lines("proc", summary.procs);
  scope_lines("phase", summary.phases);
  scope_lines("size", summary.sizes);
  for (const AttrDiskEntry& entry : summary.disks) {
    out << "{\"type\":\"disk\",\"point\":\"" << point << "\",";
    write_disk_fields(out, entry);
    out << "}\n";
  }
  out << "{\"type\":\"latency_hist\",\"point\":\"" << point
      << "\",\"ops\":" << summary.total.ops << ",\"buckets\":";
  write_latency_buckets(out, summary.latency);
  out << "}\n";
}

void publish_attr_metrics(const AttrSummary& summary, MetricsRegistry& registry,
                          std::string_view prefix) {
  const std::string base(prefix);
  registry.counter(base + ".ops").add(summary.total.ops);
  registry.counter(base + ".write_ops").add(summary.total.write_ops);
  registry.counter(base + ".bytes").add(summary.total.bytes);
  registry.gauge(base + ".io_time_s").set(Ticks(summary.total.total_ticks).seconds());
  for (std::size_t c = 0; c < kAttrOpComponents; ++c) {
    registry.gauge(base + "." + kComponentNames[c] + "_s")
        .set(Ticks(summary.total.comp[c]).seconds());
  }
  for (std::size_t i = 0; i < kAttrLatencyBuckets; ++i) {
    registry.counter(base + ".latency_us." + latency_bucket_name(i)).add(summary.latency[i]);
  }
  // Component histograms coarsen the 1-2-5 ladder to decades so the metric
  // name count stays bounded (8 components x 6 buckets).
  static constexpr std::array<std::pair<std::int64_t, const char*>, 5> kCoarse = {{
      {100, "le_100us"},
      {1000, "le_1ms"},
      {10000, "le_10ms"},
      {100000, "le_100ms"},
      {1000000, "le_1s"},
  }};
  for (std::size_t c = 0; c < kAttrOpComponents; ++c) {
    std::array<std::int64_t, kCoarse.size() + 1> coarse{};
    for (std::size_t i = 0; i < kAttrLatencyBuckets; ++i) {
      std::size_t slot = kCoarse.size();  // +Inf
      if (i < kAttrLatencyBoundsUs.size()) {
        for (std::size_t k = 0; k < kCoarse.size(); ++k) {
          if (kAttrLatencyBoundsUs[i] <= kCoarse[k].first) {
            slot = k;
            break;
          }
        }
      }
      coarse[slot] += summary.comp_hist[c][i];
    }
    for (std::size_t k = 0; k < kCoarse.size(); ++k) {
      registry.counter(base + ".hist." + kComponentNames[c] + "." + kCoarse[k].second)
          .add(coarse[k]);
    }
    registry.counter(base + ".hist." + kComponentNames[c] + ".le_inf")
        .add(coarse[kCoarse.size()]);
  }
}

}  // namespace craysim::obs
