// The host-cost benchmark's four testbeds (see README.md here).
//
// Each testbed is built from the simulator's public APIs, generates its own
// inputs from the seed, and submits arrivals at their due virtual time from
// the benchmark's own coroutine. A testbed's lifetime is the measured
// region: construct (setup_s), run() + readout() + destroy (run_s).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probe.hpp"
#include "sim/simulator.hpp"

namespace hostcost {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  /// Small sizes for the benchmark's own test; the default is the measured
  /// size.
  bool tiny = false;
  /// Per-layer run: installs metrics-only obs::Telemetry (full telemetry on
  /// gpu-fleet-obs regardless) and records host spans.
  bool traced = false;
  /// Scratch directory for the cpu-burst .fstrace round trip.
  std::string workdir = ".";
};

/// The modelled outcome of one run plus the per-layer numbers read from the
/// layers' public stats.
struct Readout {
  std::size_t offered = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::size_t failed = 0;     ///< settled with a non-shed error
  std::size_t unsettled = 0;  ///< future not ready at drain
  std::size_t mid_reset_dispatches = 0;
  /// Conservation/ledger checks that did not hold.
  std::vector<std::string> violations;
  std::string digest;          ///< FNV-1a over every request's outcome
  std::string latency_label;   ///< what p50/p99 describe
  /// Layer the arrivals are submitted to: "federation" or "serve".
  std::string submit_layer;
  double p50_s = 0;
  double p99_s = 0;
  double gpu_util = -1;  ///< fleet mean GPU utilization; <0 when no GPU fleet
  std::map<std::string, double> layers;
};

class Testbed {
 public:
  virtual ~Testbed() = default;
  /// Requests the generated inputs will submit.
  [[nodiscard]] virtual std::size_t offered() const = 0;
  /// The simulator every layer of the testbed runs on.
  virtual faaspart::sim::Simulator& simulator() = 0;
  /// Reads outcomes and layer stats; call once after run().
  virtual Readout readout() = 0;
};

/// Builds the named workload's testbed and inputs (the setup_s region);
/// throws std::invalid_argument for an unknown name.
std::unique_ptr<Testbed> make_testbed(const Config& cfg, Spans& spans);

}  // namespace hostcost
