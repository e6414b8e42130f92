// End-to-end serving invariants: random traces replayed through a real
// Simulator + ComputeService + ClusterService (the same stack the
// scenario_serving bench drives), checked for settlement, shed accounting,
// partition avoidance, and replay determinism.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "federation/cluster.hpp"
#include "prop/registry.hpp"
#include "scenario/driver.hpp"
#include "util/strings.hpp"

namespace faaspart::prop {
namespace {

using namespace util::literals;

struct ReplayOutcome {
  scenario::ReplayReport report;
  federation::ClusterStats stats;
  /// Requests each endpoint ran (its DFK's records), by endpoint name.
  std::map<std::string, std::uint64_t> served;
};

// One self-contained replay: 3 CPU endpoints x 2 workers, the routing
// policy picked deterministically from the trace's seed so the whole policy
// matrix gets exercised across iterations.
ReplayOutcome replay(const scenario::Trace& trace, bool partition_b = false) {
  sim::Simulator sim;
  federation::ComputeService service(sim);
  for (const std::string name : {"ep-a", "ep-b", "ep-c"}) {
    federation::Endpoint::Options opts;
    opts.name = name;
    opts.rtt = 1_ms;
    federation::Endpoint& ep = service.register_endpoint(
        std::make_unique<federation::Endpoint>(sim, opts));
    ep.add_cpu_executor("cpu", 2);
    if (partition_b && name == "ep-b") {
      ep.partition_for(trace.horizon + util::minutes(10));
    }
  }
  federation::ClusterOptions opts;
  opts.policy = static_cast<federation::ClusterPolicy>(trace.seed % 4);
  federation::ClusterService cluster(sim, service, opts);

  const auto make_app = [](const scenario::TraceFunction& f) {
    faas::AppDef app;
    const util::Duration d =
        f.cls.service_estimate.ns > 0 ? f.cls.service_estimate : 1_ms;
    // faaspart-lint: allow(C2) -- the lambda lives in AppDef::body for the
    // whole replay; d is captured by value.
    app.body = [d](faas::TaskContext& ctx) -> sim::Co<faas::AppValue> {
      co_await ctx.compute(d);
      co_return faas::AppValue{1.0};
    };
    return app;
  };
  ReplayOutcome out;
  out.report = scenario::replay_trace(sim, cluster, trace, make_app, "cpu");
  out.stats = cluster.stats();
  for (const auto& name : service.endpoint_names()) {
    out.served[name] = service.endpoint(name).dfk().tasks_submitted();
  }
  return out;
}

// Every submitted request settles exactly once: completed, shed, or failed
// partition the submit count, nothing stays pending after drain, and the
// shed-reason ledger reconciles with the aggregate counters —
//   admitted   = submitted - (rate-limit + queue-full + deadline)
//   dispatched = admitted - expired
//   completed  = dispatched (the replay app never fails on its own).
std::string settled_once_reasons_reconcile(const scenario::Trace& trace) {
  const ReplayOutcome out = replay(trace);
  const auto& st = out.stats;
  const auto& rep = out.report;
  if (rep.submitted != trace.events.size()) {
    return util::strf("submitted ", rep.submitted, " of ",
                      trace.events.size(), " events");
  }
  if (rep.completed + rep.shed + rep.failed != rep.submitted) {
    return util::strf("settlement leak: ", rep.completed, " completed + ",
                      rep.shed, " shed + ", rep.failed, " failed != ",
                      rep.submitted, " submitted");
  }
  if (rep.failed != 0) return util::strf(rep.failed, " non-shed failures");

  std::size_t by_reason = 0;
  for (const auto& [reason, n] : st.shed_by_reason) {
    if (reason != "rate-limit" && reason != "queue-full" &&
        reason != "deadline" && reason != "expired") {
      return "unknown shed reason '" + reason + "'";
    }
    by_reason += n;
  }
  if (by_reason != st.shed || rep.shed != st.shed) {
    return util::strf("shed ledger mismatch: reasons sum ", by_reason,
                      ", stats.shed ", st.shed, ", report.shed ", rep.shed);
  }
  const auto reason = [&st](const char* r) {
    const auto it = st.shed_by_reason.find(r);
    return it == st.shed_by_reason.end() ? std::size_t{0} : it->second;
  };
  const std::size_t at_admission =
      reason("rate-limit") + reason("queue-full") + reason("deadline");
  if (st.admitted != st.submitted - at_admission) {
    return util::strf("admitted ", st.admitted, " != submitted ",
                      st.submitted, " - admission sheds ", at_admission);
  }
  if (st.dispatched != st.admitted - reason("expired")) {
    return util::strf("dispatched ", st.dispatched, " != admitted ",
                      st.admitted, " - expired ", reason("expired"));
  }
  if (rep.completed != st.dispatched) {
    return util::strf("completed ", rep.completed, " != dispatched ",
                      st.dispatched);
  }
  return {};
}
const bool reg_settled = register_trace_property(
    "cluster-settled-once-reasons", settled_once_reasons_reconcile);

// A partitioned endpoint receives no dispatches while reachable peers
// exist (here: ep-b is down for the whole run, ep-a/ep-c never are).
std::string no_dispatch_to_partitioned(const scenario::Trace& trace) {
  const ReplayOutcome out = replay(trace, /*partition_b=*/true);
  const std::uint64_t to_b = out.served.at("ep-b");
  if (to_b != 0) {
    return util::strf("partitioned ep-b received ", to_b,
                      " dispatches under policy ", trace.seed % 4);
  }
  return {};
}
const bool reg_partition = register_trace_property(
    "cluster-no-dispatch-partitioned", no_dispatch_to_partitioned);

// Two fresh replays of the same trace land on the same outcome digest —
// the per-request identity the runner determinism goldens build on.
std::string replay_deterministic(const scenario::Trace& trace) {
  const ReplayOutcome a = replay(trace);
  const ReplayOutcome b = replay(trace);
  if (a.report.digest != b.report.digest) {
    return "replay digests diverged: " + a.report.digest + " vs " +
           b.report.digest;
  }
  if (a.report.completed != b.report.completed ||
      a.report.shed != b.report.shed) {
    return "replay counters diverged";
  }
  return {};
}
const bool reg_determinism = register_trace_property(
    "cluster-replay-deterministic", replay_deterministic);

// save -> load -> replay reaches the same outcome as replaying the
// in-memory trace: the .fstrace round trip loses nothing the serving
// stack can observe.
std::string roundtrip_replay(const scenario::Trace& trace) {
  const ReplayOutcome direct = replay(trace);
  const ReplayOutcome reloaded = replay(scenario::load(scenario::save(trace)));
  if (direct.report.digest != reloaded.report.digest) {
    return "save/load changed the replay outcome: " + direct.report.digest +
           " vs " + reloaded.report.digest;
  }
  return {};
}
const bool reg_roundtrip =
    register_trace_property("cluster-roundtrip-replay", roundtrip_replay);

TEST(PropCluster, EveryRequestSettledOnceAndReasonsReconcile) {
  expect_property_holds("cluster-settled-once-reasons", 30);
}

TEST(PropCluster, NoDispatchToPartitionedEndpoint) {
  expect_property_holds("cluster-no-dispatch-partitioned", 30);
}

TEST(PropCluster, ReplayDigestDeterministic) {
  expect_property_holds("cluster-replay-deterministic", 20);
}

TEST(PropCluster, SaveLoadReplayRoundTrip) {
  expect_property_holds("cluster-roundtrip-replay", 20);
}

}  // namespace
}  // namespace faaspart::prop
