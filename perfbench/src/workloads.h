// The benchmark's four workloads. Each one builds its simulated system
// through the library's public API, runs a fixed amount of simulated work
// derived from the seed, checks every outcome, and reports host time and
// the layers' counters. main.cc repeats a workload until the
// run's time is used up.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "osiris/node.h"

namespace perfbench {

/// Per-layer metric values by name (see kLayerMetrics in main.cc).
using Layers = std::map<std::string, double>;

/// Outcome of one repetition of a workload.
struct Rep {
  double setup_s = 0;  // host: repetition start -> first simulated event
  double run_s = 0;    // host: first simulated event -> all operations done
  std::uint64_t offered = 0;    // operations offered
  std::uint64_t completed = 0;  // operations completed
  std::uint64_t failed = 0;     // operations whose outcome failed a check
  std::uint64_t events = 0;     // simulated events dispatched
  /// Hash of the simulated statistics (model counters and simulated
  /// times, never host time or engine bookkeeping): equal on every
  /// repetition of a seed, and across commits that leave the model alone.
  std::uint64_t fingerprint = 0;
  std::vector<std::string> errors;  // conservation or consistency failures
  Layers layers;                    // filled by traced repetitions
  std::vector<std::string> notes;   // human-readable detail, printed once
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One repetition. A traced repetition attaches the engine step probe,
  /// EngineGroup profiling and PDU spans, and fills Rep::layers from a
  /// registry snapshot; an untraced one attaches nothing.
  virtual Rep run(bool traced) = 0;

  /// The PDUs this workload puts on the wire, for replaying the atm
  /// functions in isolation.
  [[nodiscard]] virtual std::vector<std::vector<std::uint8_t>> pdus() const = 0;

  /// Configuration of the workload's (first) node, for the standalone
  /// construction timings.
  [[nodiscard]] virtual osiris::NodeConfig node_config() const = 0;
};

/// Names accepted by make_workload(), in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Builds `name` with inputs generated from `seed`; null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Host-time replays of single layers, added to `out` (traced runs only):
/// bare Node / PhysicalMemory / FrameAllocator construction, and the atm
/// segmentation, reassembly and Internet-checksum functions on `w.pdus()`.
void replay_layers(const Workload& w, std::uint64_t seed, Layers& out);

}  // namespace perfbench
