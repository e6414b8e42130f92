// hostcost — one repetition of one host-cost benchmark workload.
//
//   hostcost --workload gpu-fleet|cpu-burst|llm-kv|gpu-fleet-obs
//            [--seed N] [--tiny] [--workdir DIR]
//            [--traced SPANS.json] [--expect-digest HEX]
//
// Builds the workload's testbed (setup_s), runs the simulation to drain,
// reads the outcome and tears the testbed down (run_s), then checks that
// every offered request settled exactly once, that no request was
// dispatched to an endpoint mid-repartition and, given --expect-digest,
// that the outcome digest matches. The last stdout line is one JSON object,
// including the wall and CPU time of each phase (setup, the run in slices of
// kEventsPerSlice events, readout, teardown); run.py (this directory) drives
// repetitions in fresh processes, so peak RSS is never inflated by an
// earlier repetition. Exit code 1 on a failed check, 2 on bad arguments.
//
// --traced installs metrics-only telemetry (full telemetry on
// gpu-fleet-obs either way), times every call the benchmark makes into a
// layer, writes those spans as a Chrome trace and adds per-layer timings.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probe.hpp"
#include "testbeds.hpp"

namespace {

using hostcost::Config;
using hostcost::Readout;

struct Args {
  Config cfg;
  std::string span_file;
  std::string expect_digest;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "hostcost: %s\nusage: hostcost --workload NAME [--seed N] "
               "[--tiny] [--workdir DIR] [--traced SPANS.json] "
               "[--expect-digest HEX]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      a.cfg.tiny = true;
    } else if (arg == "--workload" && has_value) {
      a.cfg.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      a.cfg.seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return false;
    } else if (arg == "--workdir" && has_value) {
      a.cfg.workdir = argv[++i];
    } else if (arg == "--traced" && has_value) {
      a.cfg.traced = true;
      a.span_file = argv[++i];
    } else if (arg == "--expect-digest" && has_value) {
      a.expect_digest = argv[++i];
    } else {
      return false;
    }
  }
  return !a.cfg.workload.empty();
}

/// Host timings derived from the span log (traced runs only).
void put_span_layers(const hostcost::Spans& spans, Readout& r) {
  const std::map<std::string, double> self = spans.self_seconds();
  const auto self_of = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double run_self = self_of("sim.run");
  r.layers["sim.run_self_s"] = run_self;
  const double events = r.layers["sim.events"];
  r.layers["sim.ns_per_event"] = events > 0 ? run_self * 1e9 / events : 0.0;
  r.layers["trace.util_query_s"] = spans.total_s("trace.util_query");
  r.layers["scenario.synthesize_s"] = spans.total_s("scenario.synthesize");
  r.layers["scenario.save_s"] = spans.total_s("scenario.save");
  r.layers["scenario.load_s"] = spans.total_s("scenario.load");
  r.layers["obs.finish_s"] = spans.total_s("obs.finish");
  r.layers["obs.critical_path_s"] = spans.total_s("obs.critical_path");
  r.layers["setup.fleet_build_s"] = spans.total_s("setup.fleet_build");
  r.layers["teardown_s"] = spans.total_s("harness.teardown");
  const std::string prefix = r.submit_layer + ".submit";
  const std::vector<double> submit_ns = spans.durations_ns(prefix);
  r.layers[prefix + "_ns.p50"] = hostcost::quantile(submit_ns, 0.50);
  r.layers[prefix + "_ns.p99"] = hostcost::quantile(submit_ns, 0.99);
  r.layers[prefix + "_samples"] = static_cast<double>(submit_ns.size());
  if (r.submit_layer == "serve") {
    const double tokens = r.layers["serve.decode_tokens"];
    r.layers["serve.ns_per_decode_token"] =
        tokens > 0 ? run_self * 1e9 / tokens : 0.0;
  }
  std::printf("  layer self time (s):");
  for (const auto& [name, seconds] : self) {
    std::printf(" %s=%.6f", name.c_str(), seconds);
  }
  std::printf("\n");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return usage("bad arguments");
  const Config& cfg = args.cfg;

  hostcost::Spans spans(cfg.traced);
  hostcost::Phases phases;
  Readout r;
  std::string error;
  try {
    std::unique_ptr<hostcost::Testbed> bed = hostcost::make_testbed(cfg, spans);
    phases.end();  // setup
    r.offered = bed->offered();
    {
      hostcost::Scoped s(spans, "sim.run");
      // Simulator::run, stepped so that every kEventsPerSlice events end a
      // phase; the final run() rethrows a failed process as run() would.
      faaspart::sim::Simulator& sim = bed->simulator();
      std::uint64_t events = 0;
      while (sim.step()) {
        if (++events % hostcost::kEventsPerSlice == 0) phases.end();
      }
      sim.run();
      phases.end();
    }
    r = bed->readout();
    phases.end();
    {
      hostcost::Scoped s(spans, "harness.teardown");
      bed.reset();
    }
    phases.end();
  } catch (const std::exception& e) {
    error = e.what();
  }
  const double setup_s = phases.wall_s(0, 1);
  const double run_s = phases.wall_s(1, phases.size());
  const double cpu_s = phases.cpu_s();
  const double rss_mb = hostcost::peak_rss_mb();

  // Checks. A run-level failure counts every offered request as failed.
  std::vector<std::string> failures = r.violations;
  if (!error.empty()) failures.push_back("threw: " + error);
  if (r.completed + r.shed + r.failed + r.unsettled != r.offered) {
    failures.push_back("outcomes do not add up to offered");
  }
  if (r.unsettled > 0) failures.push_back("requests unsettled at drain");
  if (r.mid_reset_dispatches > 0) failures.push_back("mid-reset dispatches");
  std::string digest_state = "not compared: no expected digest given";
  if (!args.expect_digest.empty() && error.empty()) {
    const bool match = r.digest == args.expect_digest;
    digest_state = (match ? "matches " : "MISMATCH, expected ") + args.expect_digest;
    if (!match) failures.push_back("digest mismatch");
  }
  const std::size_t failed_requests =
      failures.empty() ? 0 : std::max<std::size_t>(r.offered, 1);

  std::printf("hostcost %s seed=%llu size=%s traced=%d\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed),
              cfg.tiny ? "tiny" : "full", cfg.traced ? 1 : 0);
  std::printf("  offered %zu completed %zu shed %zu failed %zu unsettled %zu\n",
              r.offered, r.completed, r.shed, r.failed, r.unsettled);
  std::printf("  %s p50 %.6f s p99 %.6f s", r.latency_label.c_str(), r.p50_s,
              r.p99_s);
  if (r.gpu_util >= 0) std::printf(" fleet GPU util %.4f", r.gpu_util);
  std::printf("\n  digest %s (%s)\n", r.digest.c_str(), digest_state.c_str());
  std::printf("  setup %.6f s run %.6f s cpu %.6f s peak RSS %.1f MB\n",
              setup_s, run_s, cpu_s, rss_mb);
  for (const std::string& f : failures) std::printf("  CHECK FAILED: %s\n", f.c_str());

  if (cfg.traced && error.empty()) {
    put_span_layers(spans, r);
    if (!spans.write_chrome_trace(args.span_file)) {
      std::fprintf(stderr, "hostcost: cannot write %s\n", args.span_file.c_str());
      return 1;
    }
  }

  std::printf("{\"workload\":%s,\"seed\":%llu,\"traced\":%s,\"setup_s\":%.9f,"
              "\"run_s\":%.9f,\"cpu_s\":%.9f,\"peak_rss_mb\":%.3f,"
              "\"offered\":%zu,\"failed\":%zu,\"digest\":%s,\"failures\":[",
              json_string(cfg.workload).c_str(),
              static_cast<unsigned long long>(cfg.seed),
              cfg.traced ? "true" : "false", setup_s, run_s, cpu_s, rss_mb,
              r.offered, failed_requests, json_string(r.digest).c_str());
  for (std::size_t i = 0; i < failures.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",", json_string(failures[i]).c_str());
  }
  std::printf("],\"phases\":[");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const hostcost::Phases::Phase& p = phases.at(i);
    std::printf("%s[%.9f,%.9f]", i == 0 ? "" : ",", p.wall_s, p.cpu_s);
  }
  std::printf("],\"layers\":{");
  bool first = true;
  for (const auto& [name, value] : r.layers) {
    std::printf("%s%s:%.17g", first ? "" : ",", json_string(name).c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  return failures.empty() ? 0 : 1;
}
