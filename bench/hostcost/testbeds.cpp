#include "testbeds.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/autoscale.hpp"
#include "core/weightcache.hpp"
#include "faas/app.hpp"
#include "federation/cluster.hpp"
#include "federation/endpoint.hpp"
#include "federation/service.hpp"
#include "gpu/device.hpp"
#include "obs/critical_path.hpp"
#include "obs/telemetry.hpp"
#include "scenario/synthesize.hpp"
#include "scenario/trace.hpp"
#include "sched/engines.hpp"
#include "serve/engine.hpp"
#include "sim/simulator.hpp"
#include "trace/recorder.hpp"
#include "trace/stats.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workloads/dnn.hpp"
#include "workloads/llama.hpp"

namespace hostcost {
namespace {

using namespace faaspart;
using namespace faaspart::util::literals;

// -- sizes --------------------------------------------------------------------

struct FleetSize {
  int endpoints;
  util::Duration window;  ///< open-loop arrival window
};
struct BurstSize {
  int endpoints;
  double base_rate_hz;
  util::Duration phase_len;  ///< four phases: trough, ramp, peak, flash crowd
};
struct LlmSize {
  util::Duration window;
  double rate_hz;
};

FleetSize fleet_size(bool tiny) {
  return tiny ? FleetSize{2, 20_s} : FleetSize{16, 140_s};
}
BurstSize burst_size(bool tiny) {
  return tiny ? BurstSize{2, 15.0, 5_s} : BurstSize{16, 120.0, 90_s};
}
LlmSize llm_size(bool tiny) {
  return tiny ? LlmSize{60_s, 2.0} : LlmSize{10000_s, 0.5};
}

// -- shared helpers -----------------------------------------------------------

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Sum of a counter over all its label sets.
double counter_total(const obs::Telemetry& tel, const std::string& name) {
  double total = 0;
  for (const auto& [key, c] : tel.metrics().counters()) {
    if (key.first == name) total += c->value();
  }
  return total;
}

/// gpu-fleet-obs: everything on. Traced runs of the other workloads:
/// metrics only, no sampler tick, so no event is added to the simulation.
std::unique_ptr<obs::Telemetry> make_telemetry(sim::Simulator& sim, bool full,
                                               bool traced) {
  obs::TelemetryOptions o;
  if (full) {
    o.tracing = true;
    o.flight = true;
  } else if (traced) {
    o.tracing = false;
    o.sample_period = util::Duration{};
  } else {
    return nullptr;
  }
  return std::make_unique<obs::Telemetry>(sim, o);
}

// Counts only telemetry exposes; absent from untraced runs.
void put_faas_layers(const obs::Telemetry* tel, Readout& r) {
  if (tel == nullptr) return;
  r.layers["faas.attempts"] = counter_total(*tel, "htex_attempts_total");
  r.layers["faas.cold_starts"] = counter_total(*tel, "htex_cold_starts_total");
  r.layers["faas.worker_boots"] = counter_total(*tel, "htex_worker_boots_total");
  r.layers["faas.tasks_done"] = counter_total(*tel, "htex_tasks_done_total");
  r.layers["faas.tasks_failed"] = counter_total(*tel, "htex_tasks_failed_total");
  r.layers["faas.dfk_submits"] = counter_total(*tel, "dfk_submits_total");
}

void put_gpu_layers(const obs::Telemetry* tel, Readout& r) {
  if (tel == nullptr) return;
  r.layers["gpu.kernel_launches"] = counter_total(*tel, "kernel_launches_total");
  r.layers["gpu.contexts_created"] =
      counter_total(*tel, "gpu_contexts_created_total");
}

void check(Readout& r, bool ok, const std::string& what) {
  if (!ok) r.violations.push_back(what);
}

// -- cluster workloads (gpu-fleet, gpu-fleet-obs, cpu-burst) -------------------

struct Arrival {
  util::TimePoint at{};
  std::size_t fn = 0;  ///< index into the testbed's function table
};

/// The benchmark's arrival coroutine: submits each arrival at its due
/// virtual time, then drains the cluster at `drain_at`.
sim::Co<void> drive_cluster(sim::Simulator& sim,
                            federation::ClusterService& cluster,
                            const std::vector<Arrival>& arrivals,
                            const std::vector<std::string>& fn_ids,
                            const std::vector<std::string>& labels,
                            std::vector<faas::AppHandle>& handles,
                            util::TimePoint drain_at, Spans& spans) {
  for (const Arrival& a : arrivals) {
    if (a.at > sim.now()) co_await sim.delay(a.at - sim.now());
    const long span = spans.begin("federation.submit");
    handles.push_back(cluster.submit(fn_ids[a.fn], labels[a.fn]));
    spans.end(span);
  }
  if (drain_at > sim.now()) co_await sim.delay(drain_at - sim.now());
  co_await cluster.shutdown();
}

/// Tallies settled handles into `r` and digests every request's outcome in
/// submit order; returns submit→finish seconds of completed requests.
std::vector<double> tally_handles(const std::vector<faas::AppHandle>& handles,
                                  Readout& r) {
  std::vector<double> completions;
  completions.reserve(handles.size());
  std::ostringstream hashed;
  for (const faas::AppHandle& h : handles) {
    const faas::TaskRecord& rec = *h.record;
    if (!h.future.ready()) {
      ++r.unsettled;
    } else if (rec.state == faas::TaskRecord::State::kDone) {
      ++r.completed;
      completions.push_back(rec.completion_time().seconds());
    } else if (rec.state != faas::TaskRecord::State::kFailed) {
      ++r.unsettled;  // future ready but the record never reached a final state
    } else if (rec.error.rfind("shed: ", 0) == 0) {
      ++r.shed;
    } else {
      ++r.failed;
    }
    hashed << rec.app << '|' << static_cast<int>(rec.state) << '|'
           << rec.finished.ns << '|' << rec.error << '\n';
  }
  r.digest = hex64(scenario::fnv1a(hashed.str()));
  return completions;
}

void put_cluster_layers(const federation::ClusterStats& st, Readout& r) {
  r.mid_reset_dispatches = st.mid_reset_dispatches;
  check(r, st.submitted == r.offered, "cluster submitted != offered");
  check(r, st.shed == r.shed, "cluster shed count != shed outcomes");
  check(r, st.dispatched <= st.admitted, "dispatched more than admitted");
  r.layers["federation.offered"] = static_cast<double>(st.submitted);
  r.layers["federation.admitted"] = static_cast<double>(st.admitted);
  r.layers["federation.shed"] = static_cast<double>(st.shed);
  r.layers["federation.dispatched"] = static_cast<double>(st.dispatched);
  r.layers["federation.warm_dispatch_ratio"] =
      st.dispatched > 0 ? static_cast<double>(st.sticky_hits) /
                              static_cast<double>(st.dispatched)
                        : 0.0;
}

sim::Co<faas::AppValue> resnet_body(
    faas::TaskContext& ctx,
    std::shared_ptr<const std::vector<gpu::KernelDesc>> kernels) {
  for (const gpu::KernelDesc& k : *kernels) co_await ctx.launch(k);
  co_return faas::AppValue{};
}

faas::AppDef resnet_app(const std::string& name) {
  faas::AppDef app;
  app.name = name;
  app.function_init = 500_ms;
  app.model_bytes = 2 * util::GB;  // weights + runtime
  app.model_key = "resnet50";
  auto kernels = std::make_shared<const std::vector<gpu::KernelDesc>>(
      workloads::models::resnet50().inference_kernels(8));
  app.body = [kernels](faas::TaskContext& ctx) {
    return resnet_body(ctx, kernels);
  };
  return app;
}

/// 16 A100-80GB MPS endpoints, each a LLaMa-2-7B + ResNet-50 tenant pair
/// behind a capacity-limited weight cache and an autoscaler; least-loaded
/// routing under open-loop Poisson arrivals at 1x the base rate.
class FleetBed final : public Testbed {
 public:
  FleetBed(const Config& cfg, bool obs_on, Spans& spans)
      : size_(fleet_size(cfg.tiny)), obs_on_(obs_on), spans_(spans) {
    constexpr double kLlamaHz = 8.0;
    constexpr double kResnetHz = 48.0;
    const double scale = size_.endpoints / 16.0;
    {
      Scoped s(spans_, "harness.inputs");
      // Two Poisson streams, merged by time (llama first on ties).
      util::Rng llama_rng(cfg.seed * 7919 + 11);
      util::Rng resnet_rng(cfg.seed * 7919 + 13);
      std::vector<Arrival> llama = poisson(llama_rng, kLlamaHz * scale, 0);
      std::vector<Arrival> resnet = poisson(resnet_rng, kResnetHz * scale, 1);
      arrivals_.reserve(llama.size() + resnet.size());
      std::merge(llama.begin(), llama.end(), resnet.begin(), resnet.end(),
                 std::back_inserter(arrivals_),
                 [](const Arrival& a, const Arrival& b) { return a.at < b.at; });
      handles_.reserve(arrivals_.size());
    }
    {
      Scoped s(spans_, "setup.fleet_build");
      tel_ = make_telemetry(sim_, obs_on_, cfg.traced);
      service_ = std::make_unique<federation::ComputeService>(sim_);
      const util::Bytes llama_bytes = workloads::llama_memory_footprint(
          workloads::llama2_7b(), workloads::serving_config());
      for (int i = 0; i < size_.endpoints; ++i) {
        federation::Endpoint::Options eo;
        eo.name = util::strf("ep-", i < 10 ? "0" : "", i);
        eo.cpu_cores = 8;
        eo.rtt = util::milliseconds(10 + 10 * (i % 4));  // WAN tiers 10..40 ms
        eo.gpus = {gpu::arch::a100_80gb()};
        recorders_.push_back(std::make_unique<trace::Recorder>());
        auto ep = std::make_unique<federation::Endpoint>(sim_, eo,
                                                         recorders_.back().get());
        // Room for the LLaMa weights plus headroom, not both working sets.
        ep->enable_weight_cache(120_ms, llama_bytes + 1 * util::GB);
        faas::HtexConfig tenant;
        tenant.label = "llama";
        tenant.available_accelerators = {"0"};
        tenant.gpu_percentages = {50};
        ep->add_gpu_executor(tenant);
        tenant.label = "resnet";
        ep->add_gpu_executor(tenant);
        ep->enable_autoscaler({{"llama", 50}, {"resnet", 50}},
                              util::TimePoint{} + size_.window,
                              {.interval = 30_s, .min_percentage = 20,
                               .min_delta = 20, .ewma_alpha = 0.5});
        service_->register_endpoint(std::move(ep));
      }
      fn_ids_.push_back(service_->register_function(
          workloads::make_llama_completion_app(
              "llama-7b", workloads::llama2_7b(), workloads::serving_config(),
              {32, 8})));
      fn_ids_.push_back(service_->register_function(resnet_app("resnet-serve")));
      cluster_ = std::make_unique<federation::ClusterService>(
          sim_, *service_,
          federation::ClusterOptions{federation::ClusterPolicy::kLeastLoaded});
      federation::FunctionClass llama_cls;
      llama_cls.tenant = "llm";
      llama_cls.weight = 2.0;
      llama_cls.rate_hz = 1.25 * kLlamaHz * scale;
      llama_cls.burst = 16;
      llama_cls.max_queue = 64;
      llama_cls.deadline = 75_s;
      llama_cls.service_estimate = 2_s;
      cluster_->configure_function(fn_ids_[0], llama_cls);
      federation::FunctionClass resnet_cls;
      resnet_cls.tenant = "vision";
      resnet_cls.weight = 1.0;
      resnet_cls.rate_hz = 1.25 * kResnetHz * scale;
      resnet_cls.burst = 32;
      resnet_cls.max_queue = 256;
      resnet_cls.deadline = 20_s;
      resnet_cls.service_estimate = 200_ms;
      cluster_->configure_function(fn_ids_[1], resnet_cls);
    }
    labels_ = {"llama", "resnet"};
    sim_.spawn(drive_cluster(sim_, *cluster_, arrivals_, fn_ids_, labels_,
                             handles_, util::TimePoint{} + size_.window + 1_ms,
                             spans_),
               "hostcost-arrivals");
  }

  [[nodiscard]] std::size_t offered() const override { return arrivals_.size(); }
  sim::Simulator& simulator() override { return sim_; }

  Readout readout() override {
    Readout r;
    r.offered = arrivals_.size();
    r.latency_label = "completion";
    r.submit_layer = "federation";
    {
      Scoped s(spans_, "harness.readout");
      trace::Summary sum = trace::summarize(tally_handles(handles_, r));
      r.p50_s = sum.p50;
      r.p99_s = sum.p99;
      put_cluster_layers(cluster_->stats(), r);
    }
    double util_total = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    int reconfigures = 0;
    {
      Scoped s(spans_, "trace.util_query");
      for (const auto& name : service_->endpoint_names()) {
        federation::Endpoint& ep = service_->endpoint(name);
        util_total += ep.devices().device(0).measured_utilization(
            util::TimePoint{}, util::TimePoint{} + size_.window);
      }
    }
    for (const auto& name : service_->endpoint_names()) {
      federation::Endpoint& ep = service_->endpoint(name);
      hits += ep.weight_cache()->hits();
      misses += ep.weight_cache()->misses();
      reconfigures += ep.autoscaler()->reconfigurations();
    }
    r.gpu_util = util_total / size_.endpoints;
    std::size_t recorder_spans = 0;
    for (const auto& rec : recorders_) recorder_spans += rec->spans().size();
    r.layers["sim.events"] = static_cast<double>(sim_.processed_events());
    r.layers["trace.recorder_spans"] = static_cast<double>(recorder_spans);
    r.layers["core.weight_misses"] = static_cast<double>(misses);
    r.layers["core.weight_hit_ratio"] =
        hits + misses > 0 ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0.0;
    r.layers["core.reconfigures"] = reconfigures;
    put_gpu_layers(tel_.get(), r);
    put_faas_layers(tel_.get(), r);
    if (obs_on_) {
      {
        Scoped s(spans_, "obs.finish");
        tel_->finish();
      }
      Scoped s(spans_, "obs.critical_path");
      const auto breakdowns = obs::analyze_requests(tel_->tracer()->spans());
      double min_coverage = breakdowns.empty() ? 0.0 : 1.0;
      for (const auto& b : breakdowns) {
        min_coverage = std::min(min_coverage, b.coverage());
      }
      const auto groups =
          obs::aggregate_breakdowns(breakdowns, obs::GroupBy::kFunction);
      check(r, groups.size() == fn_ids_.size(), "critical path lost a function");
      r.layers["obs.spans"] = static_cast<double>(tel_->tracer()->spans().size());
      r.layers["obs.min_coverage"] = min_coverage;
    }
    return r;
  }

 private:
  std::vector<Arrival> poisson(util::Rng& rng, double rate_hz, std::size_t fn) const {
    std::vector<Arrival> out;
    util::TimePoint t{};
    const util::TimePoint end = util::TimePoint{} + size_.window;
    for (;;) {
      t = t + util::from_seconds(rng.exponential(1.0 / rate_hz));
      if (t >= end) return out;
      out.push_back({t, fn});
    }
  }

  FleetSize size_;
  bool obs_on_;
  Spans& spans_;
  // Destruction runs bottom-up: handles and the cluster go first, the
  // simulator last (it outlives everything that schedules on it).
  sim::Simulator sim_;
  std::unique_ptr<obs::Telemetry> tel_;
  std::vector<std::unique_ptr<trace::Recorder>> recorders_;
  std::unique_ptr<federation::ComputeService> service_;
  std::unique_ptr<federation::ClusterService> cluster_;
  std::vector<Arrival> arrivals_;
  std::vector<std::string> fn_ids_;
  std::vector<std::string> labels_;
  std::vector<faas::AppHandle> handles_;
};

sim::Co<faas::AppValue> cpu_body(faas::TaskContext& ctx, util::Duration mean) {
  co_await ctx.compute(ctx.rng().lognormal_duration(mean, 0.3));
  co_return faas::AppValue{1.0};
}

/// 16 CPU endpoints x 4 workers under slo-aware routing, replaying a
/// synthesized .fstrace (diurnal ramp into a flash crowd with ON/OFF bursts,
/// Zipf popularity over 6 functions, interactive and batch tenants) that
/// the benchmark saves as text and loads back.
class BurstBed final : public Testbed {
 public:
  BurstBed(const Config& cfg, Spans& spans)
      : size_(burst_size(cfg.tiny)), spans_(spans) {
    scenario::Trace synthesized;
    {
      Scoped s(spans_, "scenario.synthesize");
      scenario::SynthesisSpec spec;
      spec.seed = cfg.seed;
      spec.functions = 6;
      spec.zipf_s = 1.0;
      spec.base_rate_hz = size_.base_rate_hz;
      spec.phases = scenario::diurnal_burst_phases(size_.phase_len);
      scenario::TenantSpec interactive;
      interactive.name = "interactive";
      interactive.weight = 2.0;
      interactive.deadline = 3_s;
      interactive.service_estimate = 120_ms;
      interactive.max_queue = 64;
      scenario::TenantSpec batch;
      batch.name = "batch";
      batch.weight = 1.0;
      batch.deadline = 15_s;
      batch.service_estimate = 400_ms;
      batch.rate_headroom = 1.5;
      batch.burst_seconds = 4.0;
      batch.max_queue = 128;
      spec.tenants = {interactive, batch};
      synthesized = scenario::synthesize(spec);
    }
    const std::string path = cfg.workdir + "/" + cfg.workload + ".fstrace";
    {
      Scoped s(spans_, "scenario.save");
      const std::string text = scenario::save(std::move(synthesized));
      trace_bytes_ = text.size();
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << text;
      if (!out.flush()) throw std::runtime_error("cannot write " + path);
    }
    {
      Scoped s(spans_, "scenario.load");
      std::ifstream in(path, std::ios::binary);
      if (!in) throw std::runtime_error("cannot read " + path);
      std::ostringstream text;
      text << in.rdbuf();
      trace_ = scenario::load(text.str());
    }
    {
      Scoped s(spans_, "setup.fleet_build");
      tel_ = make_telemetry(sim_, false, cfg.traced);
      service_ = std::make_unique<federation::ComputeService>(sim_);
      for (int i = 0; i < size_.endpoints; ++i) {
        federation::Endpoint::Options eo;
        eo.name = util::strf("ep-", i < 10 ? "0" : "", i);
        eo.rtt = util::milliseconds(10 + 10 * (i % 4));  // WAN tiers 10..40 ms
        auto ep = std::make_unique<federation::Endpoint>(sim_, eo);
        ep->add_cpu_executor("cpu", 4);
        service_->register_endpoint(std::move(ep));
      }
      cluster_ = std::make_unique<federation::ClusterService>(
          sim_, *service_,
          federation::ClusterOptions{federation::ClusterPolicy::kSloAware});
      // One function per catalog entry, as scenario::TraceDriver binds them.
      std::map<std::string, std::size_t> index;
      for (const scenario::TraceFunction& f : trace_.catalog) {
        faas::AppDef app;
        app.name = f.name;
        // A per-(worker, function) import cost gives warm routing something
        // to win: blind policies pay it on every endpoint they touch.
        app.function_init = 300_ms;
        const util::Duration mean = f.cls.service_estimate;
        app.body = [mean](faas::TaskContext& ctx) { return cpu_body(ctx, mean); };
        index[f.name] = fn_ids_.size();
        fn_ids_.push_back(service_->register_function(std::move(app)));
        labels_.push_back("cpu");
        federation::FunctionClass cls = f.cls;
        cls.tenant = f.tenant;
        cluster_->configure_function(fn_ids_.back(), cls);
      }
      arrivals_.reserve(trace_.events.size());
      for (const scenario::TraceEvent& ev : trace_.events) {
        arrivals_.push_back({ev.at, index.at(ev.function)});
      }
      handles_.reserve(arrivals_.size());
    }
    sim_.spawn(drive_cluster(sim_, *cluster_, arrivals_, fn_ids_, labels_,
                             handles_, util::TimePoint{} + trace_.horizon + 60_s,
                             spans_),
               "hostcost-arrivals");
  }

  [[nodiscard]] std::size_t offered() const override { return arrivals_.size(); }
  sim::Simulator& simulator() override { return sim_; }

  Readout readout() override {
    Readout r;
    r.offered = arrivals_.size();
    r.latency_label = "completion";
    r.submit_layer = "federation";
    {
      Scoped s(spans_, "harness.readout");
      trace::Summary sum = trace::summarize(tally_handles(handles_, r));
      r.p50_s = sum.p50;
      r.p99_s = sum.p99;
      put_cluster_layers(cluster_->stats(), r);
    }
    r.layers["sim.events"] = static_cast<double>(sim_.processed_events());
    r.layers["scenario.arrivals"] = static_cast<double>(trace_.events.size());
    r.layers["scenario.trace_bytes"] = static_cast<double>(trace_bytes_);
    put_gpu_layers(tel_.get(), r);
    put_faas_layers(tel_.get(), r);
    return r;
  }

 private:
  BurstSize size_;
  Spans& spans_;
  std::size_t trace_bytes_ = 0;
  scenario::Trace trace_;
  sim::Simulator sim_;
  std::unique_ptr<obs::Telemetry> tel_;
  std::unique_ptr<federation::ComputeService> service_;
  std::unique_ptr<federation::ClusterService> cluster_;
  std::vector<Arrival> arrivals_;
  std::vector<std::string> fn_ids_;
  std::vector<std::string> labels_;
  std::vector<faas::AppHandle> handles_;
};

// -- llm-kv -------------------------------------------------------------------

struct LlmArrival {
  util::TimePoint at{};
  int prompt = 0;
  int output = 0;
};

// Long-context mix: prompts of 256-2k tokens growing by 256-2k outputs, so a
// batch admitted under the pager's watermark outgrows the KV pool
// mid-decode and the pager must preempt.
constexpr int kPrompts[] = {256, 512, 1024, 2048};
constexpr double kPromptW[] = {0.3, 0.35, 0.25, 0.1};
constexpr int kOutputs[] = {256, 512, 1024, 2048};
constexpr double kOutputW[] = {0.2, 0.35, 0.3, 0.15};

int pick(util::Rng& rng, const int (&values)[4], const double (&weights)[4]) {
  const double u = rng.uniform(0.0, 1.0);
  double acc = 0;
  for (int i = 0; i < 4; ++i) {
    acc += weights[i];
    if (u < acc) return values[i];
  }
  return values[3];
}

sim::Co<void> drive_engine(sim::Simulator& sim, serve::ServingEngine& engine,
                           const std::vector<LlmArrival>& arrivals,
                           std::vector<sim::Future<serve::RequestOutcome>>& futures,
                           Spans& spans) {
  for (const LlmArrival& a : arrivals) {
    if (a.at > sim.now()) co_await sim.delay(a.at - sim.now());
    serve::LlmRequest req;
    req.prompt_tokens = a.prompt;
    req.max_new_tokens = a.output;
    const long span = spans.begin("serve.submit");
    futures.push_back(engine.submit(req));
    spans.end(span);
  }
  engine.request_stop();
  co_await engine.stopped();
}

/// One continuous-batching ServingEngine on an A100-80GB, offered a
/// long-context mix above its capacity so the KV pager binds.
class LlmKvBed final : public Testbed {
 public:
  LlmKvBed(const Config& cfg, Spans& spans)
      : size_(llm_size(cfg.tiny)), spans_(spans) {
    {
      Scoped s(spans_, "harness.inputs");
      util::Rng rng(cfg.seed ^ 0x11a5e471ULL);
      util::TimePoint t{};
      const util::TimePoint end = util::TimePoint{} + size_.window;
      for (;;) {
        t = t + util::from_seconds(rng.exponential(1.0 / size_.rate_hz));
        if (t >= end) break;
        LlmArrival a;
        a.at = t;
        a.prompt = pick(rng, kPrompts, kPromptW);
        a.output = pick(rng, kOutputs, kOutputW);
        arrivals_.push_back(a);
      }
      futures_.reserve(arrivals_.size());
    }
    {
      Scoped s(spans_, "setup.fleet_build");
      tel_ = make_telemetry(sim_, false, cfg.traced);
      dev_ = std::make_unique<gpu::Device>(sim_, gpu::arch::a100_80gb(), 0,
                                           sched::mps_factory());
      serve::EngineConfig ecfg;
      ecfg.max_batch = 48;
      ecfg.token_budget = 8192;
      ecfg.kv_reserve = 16 * util::GB;
      ecfg.max_preemptions = 8;
      engine_ = std::make_unique<serve::ServingEngine>(sim_, *dev_, ecfg);
      engine_->start();
    }
    sim_.spawn(drive_engine(sim_, *engine_, arrivals_, futures_, spans_),
               "hostcost-arrivals");
  }

  [[nodiscard]] std::size_t offered() const override { return arrivals_.size(); }
  sim::Simulator& simulator() override { return sim_; }

  Readout readout() override {
    Readout r;
    r.offered = arrivals_.size();
    r.latency_label = "ttft";
    r.submit_layer = "serve";
    std::vector<double> ttfts;
    {
      Scoped s(spans_, "harness.readout");
      std::ostringstream hashed;
      for (std::size_t i = 0; i < futures_.size(); ++i) {
        if (!futures_[i].ready() || futures_[i].failed()) {
          ++r.unsettled;
          continue;
        }
        const serve::RequestOutcome& out = futures_[i].value();
        hashed << i << '|' << serve::outcome_kind_name(out.kind) << '|'
               << out.reason << '|' << out.ttft.ns << '|' << out.latency.ns
               << '|' << out.tokens_out << '|' << out.preemptions << '\n';
        switch (out.kind) {
          case serve::OutcomeKind::kCompleted:
            ++r.completed;
            ttfts.push_back(out.ttft.seconds());
            break;
          case serve::OutcomeKind::kShed: ++r.shed; break;
          case serve::OutcomeKind::kFailed: ++r.failed; break;
        }
      }
      r.digest = hex64(scenario::fnv1a(hashed.str()));
      const trace::Summary sum = trace::summarize(std::move(ttfts));
      r.p50_s = sum.p50;
      r.p99_s = sum.p99;
    }
    const serve::EngineStats& st = engine_->stats();
    check(r, futures_.size() == r.offered, "engine submits != offered");
    check(r, st.completions == r.completed, "engine completions != outcomes");
    check(r, st.sheds == r.shed, "engine sheds != outcomes");
    check(r, st.failures == r.failed, "engine failures != outcomes");
    check(r, engine_->pager().used_pages() == 0, "KV pages leaked at drain");
    const gpu::KvPagerStats& kv = engine_->pager().stats();
    r.layers["sim.events"] = static_cast<double>(sim_.processed_events());
    r.layers["gpu.kv_pages_allocated"] = static_cast<double>(kv.pages_allocated);
    r.layers["gpu.kv_grow_failures"] = static_cast<double>(kv.grow_failures);
    r.layers["gpu.kv_peak_pages"] = kv.peak_pages_in_use;
    r.layers["serve.iterations"] = static_cast<double>(st.iterations);
    r.layers["serve.decode_tokens"] = static_cast<double>(st.decode_tokens);
    r.layers["serve.prefill_tokens"] = static_cast<double>(st.prefill_tokens);
    r.layers["serve.preemptions"] = static_cast<double>(st.preemptions);
    r.layers["serve.sheds"] = static_cast<double>(st.sheds);
    r.layers["serve.peak_batch"] = st.peak_batch;
    put_gpu_layers(tel_.get(), r);
    return r;
  }

 private:
  LlmSize size_;
  Spans& spans_;
  sim::Simulator sim_;
  std::unique_ptr<obs::Telemetry> tel_;
  std::unique_ptr<gpu::Device> dev_;
  std::unique_ptr<serve::ServingEngine> engine_;
  std::vector<LlmArrival> arrivals_;
  std::vector<sim::Future<serve::RequestOutcome>> futures_;
};

}  // namespace

std::unique_ptr<Testbed> make_testbed(const Config& cfg, Spans& spans) {
  if (cfg.workload == "gpu-fleet") {
    return std::make_unique<FleetBed>(cfg, false, spans);
  }
  if (cfg.workload == "gpu-fleet-obs") {
    return std::make_unique<FleetBed>(cfg, true, spans);
  }
  if (cfg.workload == "cpu-burst") {
    return std::make_unique<BurstBed>(cfg, spans);
  }
  if (cfg.workload == "llm-kv") {
    return std::make_unique<LlmKvBed>(cfg, spans);
  }
  throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
}

}  // namespace hostcost
