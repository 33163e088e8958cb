// Reproduces the Section 2.2 batch-scheduling observation that explains
// venus's design:
//
//   "for a given amount of CPU time required by an application, turnaround
//    time is shortest for the application which requires the least main
//    memory. Programmers take advantage of this by structuring their
//    program to use smaller in-memory data structures while staging data
//    to/from SSD or disk."
//
// Same 379 CPU-second job (venus), submitted to a busy 8-CPU / 1 GB machine
// at several memory footprints.
#include <cstdio>

#include "batch/batch.hpp"
#include "bench_common.hpp"
#include "util/table.hpp"

namespace {

using namespace craysim;

batch::BatchSystem busy_machine() {
  std::vector<batch::QueueConfig> queues = {
      {"small", Bytes{128} * kMB, Ticks::from_seconds(3600), Bytes{384} * kMB},
      {"large", Bytes{640} * kMB, Ticks::from_seconds(14400), Bytes{640} * kMB},
  };
  batch::BatchSystem system(8, Bytes{1024} * kMB, std::move(queues));
  // Steady background: big long-running jobs keep the large queue saturated,
  // small jobs churn through the small queue.
  for (int i = 0; i < 6; ++i) {
    batch::JobSpec bg;
    bg.name = "bg-large-" + std::to_string(i);
    bg.memory = Bytes{512} * kMB;
    bg.cpu_time = Ticks::from_seconds(2000);
    system.submit(bg);
  }
  for (int i = 0; i < 6; ++i) {
    batch::JobSpec bg;
    bg.name = "bg-small-" + std::to_string(i);
    bg.memory = Bytes{96} * kMB;
    bg.cpu_time = Ticks::from_seconds(300);
    system.submit(bg);
  }
  return system;
}

batch::JobResult run_venus_variant(Bytes memory) {
  auto system = busy_machine();
  batch::JobSpec venus;
  venus.name = "venus";
  venus.memory = memory;
  venus.cpu_time = Ticks::from_seconds(379);
  venus.submit_time = Ticks::from_seconds(10);
  system.submit(venus);
  return *system.run().find("venus");
}

}  // namespace

int main() {
  using namespace craysim;
  bench::heading("Section 2.2: batch turnaround vs memory footprint (the venus trade)");

  TextTable table({"venus memory MB", "queue", "wait s", "turnaround s"});
  const Bytes footprints[] = {32, 64, 128, 320, 600};
  double small_ta = 0;
  double large_ta = 0;
  for (const Bytes mb : footprints) {
    const auto r = run_venus_variant(mb * kMB);
    table.row()
        .integer(mb)
        .cell(r.queue)
        .num(r.wait_time().seconds(), 1)
        .num(r.turnaround().seconds(), 1);
    if (mb == 32) small_ta = r.turnaround().seconds();
    if (mb == 600) large_ta = r.turnaround().seconds();
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nThe 379 CPU-second job is identical in every row; only its memory request\n"
              "changes. Small-memory versions land in the fast small queue — which is why\n"
              "venus's author chose a tiny in-memory array and staged the rest through the\n"
              "file system, creating exactly the I/O load Sections 5-6 study.\n");

  bench::check(small_ta < large_ta / 1.5,
               "the small-memory variant turns around much faster on a busy machine");
  return bench::exit_status();
}
