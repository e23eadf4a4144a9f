#include "core/render_system.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "metrics/stutter_model.h"
#include "sim/logging.h"

namespace dvs {

namespace {

/** Nanosecond timestamp of a "t=<ns> ..." timeline line. */
long long
timeline_ts(const std::string &line)
{
    return std::atoll(line.c_str() + 2);
}

} // namespace

const char *
to_string(RenderMode m)
{
    switch (m) {
      case RenderMode::kVsync:
        return "VSync";
      case RenderMode::kDvsync:
        return "D-VSync";
      case RenderMode::kPaced:
        return "SwapInterval";
    }
    return "?";
}

RenderSystem::RenderSystem(const SystemConfig &config, Scenario scenario)
    : config_(config), sim_(config.seed)
{
    buffers_ = config.buffers;
    if (buffers_ == 0) {
        buffers_ = config.device.vsync_buffers;
        if (config.mode == RenderMode::kDvsync)
            buffers_ += 1; // the paper's default: one extra buffer
    }

    queue_ = std::make_unique<BufferQueue>(buffers_);
    hw_ = std::make_unique<HwVsyncGenerator>(sim_,
                                             config.device.refresh_hz);
    if (config.vsync_jitter > 0)
        hw_->set_jitter(config.vsync_jitter, &sim_.rng());

    // Registration order matters: the panel must latch before software
    // consumers observe the same edge.
    panel_ = std::make_unique<Panel>(*hw_, *queue_);
    compositor_ = std::make_unique<Compositor>(*panel_, config.latch_lead);
    dist_ = std::make_unique<VsyncDistributor>(sim_, *hw_);
    dist_->set_offset(VsyncChannel::kApp, config.vsync_app_offset);
    dist_->set_offset(VsyncChannel::kRs, config.vsync_rs_offset);

    producer_ = std::make_unique<Producer>(sim_, std::move(scenario),
                                           *queue_, *dist_);
    // Tagged like surface 0 of a multi-surface system.
    producer_->set_event_tag(1);
    // Typical runs keep a few hundred events live; pre-sizing the heap
    // and slot map keeps the hot loop out of the allocator.
    sim_.events().reserve(256);

    if (config.mode == RenderMode::kDvsync) {
        DvsyncConfig dc;
        dc.prerender_limit = config.prerender_limit >= 0
                                 ? config.prerender_limit
                                 : prerender_limit_for_buffers(buffers_);
        dc.calibration_interval = config.dtv_calibration_interval;
        dc.predictor_overhead = config.predictor_overhead;

        runtime_ = std::make_unique<DvsyncRuntime>(dc);
        dtv_ = std::make_unique<DisplayTimeVirtualizer>(sim_, *hw_,
                                                        *panel_, dc);
        fpe_ = std::make_unique<FramePreExecutor>(*dtv_, *queue_, *panel_,
                                                  *runtime_, dc);
        runtime_->bind(*producer_, *dtv_, *fpe_, *queue_);
        producer_->set_pacer(fpe_.get());
    } else if (config.mode == RenderMode::kPaced) {
        swap_pacer_ = std::make_unique<SwapIntervalPacer>(config.pacing);
        producer_->set_pacer(swap_pacer_.get());
    } else {
        vsync_pacer_ = std::make_unique<VsyncPacer>();
        producer_->set_pacer(vsync_pacer_.get());
    }

    if (config.governor.enabled && !config.thermal.enabled)
        fatal("the governor needs the thermal plant (its primary sensor); "
              "enable config.thermal");
    if (config.thermal.enabled) {
        const ThermalParams tp =
            config.thermal.params
                ? *config.thermal.params
                : thermal_params_for(config.device.thermal_budget_mw,
                                     config.device.thermal_headroom_c,
                                     config.thermal.envelope_scale);
        plant_ = std::make_unique<ThermalPlant>(tp);
        ExecResource &gpu = producer_->gpu();
        // Registered before the fault injector's transforms, so an
        // injected throttle multiplies the DVFS-scaled duration.
        gpu.add_cost_transform([this](Time, Time duration) {
            return plant_->scale_duration(duration);
        });
        gpu.add_usage_listener([this](Time start, Time end) {
            plant_->on_busy(start, end);
        });
        // Frame-coherence factor (Anglada-style dynamic sampling): a
        // deterministic animation's follow-up frames re-render mostly
        // coherent content at a fraction of the nominal GPU cost;
        // interactions are partially coherent; real-time content is
        // always new. Depends only on the record, so replays reproduce it.
        producer_->set_gpu_cost_shaper(
            [this](const FrameRecord &rec, Time nominal) {
                const double lo = plant_->params().coherent_scale;
                double scale = 1.0;
                if (rec.slot > 0) {
                    if (rec.kind == SegmentKind::kAnimation)
                        scale = lo;
                    else if (rec.kind == SegmentKind::kInteraction)
                        scale = (lo + 1.0) / 2.0;
                }
                return Time(double(nominal) * scale);
            });
    }

    stats_ = std::make_unique<FrameStats>(*producer_, *panel_);

    // The classifier reads the RefreshLog FrameStats appends, so it must
    // register its present listener after stats_. It schedules no events
    // and never reads the RNG — always-on is free for determinism.
    DropClassifier::Context cc;
    cc.producer = producer_.get();
    cc.queue = queue_.get();
    cc.stats = stats_.get();
    cc.runtime = runtime_.get();
    cc.dtv = dtv_.get();
    cc.plan = config.faults.get();
    cc.gpu = &producer_->gpu();
    cc.shared_gpu = false;
    cc.plant = plant_.get();
    if (config.governor.enabled) {
        // governor_ is constructed below; the classifier only calls the
        // closure during the run, when it exists.
        cc.governor_capped = [this] {
            return governor_ && governor_->capping();
        };
    }
    classifier_ = std::make_unique<DropClassifier>(cc, *panel_);

    if (config.monitor_invariants) {
        monitor_ = std::make_unique<InvariantMonitor>();
        // The FPE's limit bounds accumulated (queued) pre-rendered
        // buffers; one frame in flight when the limit was checked may
        // land on top, hence +1. VSync/paced runs have no depth bound.
        const int depth = config.mode == RenderMode::kDvsync
                              ? prerender_limit() + 1
                              : 0;
        monitor_->attach(*producer_, *panel_, depth);
    }
    if (config.faults) {
        injector_ = std::make_unique<FaultInjector>(sim_, config.faults);
        injector_->arm(*hw_, *queue_, *compositor_, *producer_);
    }
    // Chaos runs always get the safety net; outside them it is opt-in so
    // fault-free goldens keep their exact behavior. The governor's final
    // rung hands off to the watchdog, so enabling it arms the watchdog.
    if (runtime_ &&
        (config.watchdog || config.faults || config.governor.enabled))
        runtime_->attach_watchdog(*panel_, monitor_.get());

    if (config.forensics || config.governor.enabled) {
        metrics_ = std::make_unique<MetricsRegistry>();
        metrics_->register_gauge("queue.depth", [this] {
            return double(queue_->queued_count());
        });
        metrics_->register_gauge("queue.free", [this] {
            return double(queue_->free_count());
        });
        metrics_->register_counter("ui.busy_ns", [this] {
            return double(producer_->ui_thread().total_busy());
        });
        metrics_->register_counter("render.busy_ns", [this] {
            return double(producer_->render_thread().total_busy());
        });
        metrics_->register_counter("gpu.busy_ns", [this] {
            return double(producer_->gpu().total_busy());
        });
        metrics_->register_counter("panel.presents", [this] {
            return double(panel_->presented());
        });
        metrics_->register_counter("panel.repeats", [this] {
            return double(panel_->repeats());
        });
        metrics_->register_counter("compositor.latch_misses", [this] {
            return double(compositor_->missed_deadline());
        });
        metrics_->register_counter("stats.drops", [this] {
            return double(stats_->frame_drops());
        });
        if (runtime_) {
            metrics_->register_gauge("runtime.degraded", [this] {
                return runtime_->degraded() ? 1.0 : 0.0;
            });
        }
        if (fpe_) {
            metrics_->register_counter("fpe.pre_rendered", [this] {
                return double(fpe_->pre_rendered_frames());
            });
        }
        if (plant_) {
            metrics_->register_gauge("thermal.temp_c", [this] {
                return plant_->temperature_at(sim_.now());
            });
            metrics_->register_gauge("thermal.level", [this] {
                return double(plant_->level());
            });
            metrics_->register_counter("thermal.trips", [this] {
                return double(plant_->throttle_trips());
            });
            metrics_->register_counter("power.gpu_mj", [this] {
                return plant_->gpu_energy_mj();
            });
        }
        // Default cadence: 16 refresh periods. Dense per-period sampling
        // is available via with_metrics_interval(device.period()), but
        // idle-heavy runs would then pay for a tick per refresh — the
        // sparse default keeps the measured overhead within the 5%
        // budget perf_sim_core enforces. Series sampling stays a
        // forensics feature: a governor-only registry is a passive
        // sensor bus, polled on the governor's cadence instead.
        if (config.forensics) {
            const Time interval = config.metrics_interval > 0
                                      ? config.metrics_interval
                                      : config.device.period() * 16;
            metrics_->install(sim_, interval);
        }
    }

    if (config.governor.enabled) {
        GovernorHooks hooks;
        if (fpe_) {
            const int nominal = fpe_->prerender_limit();
            hooks.trim_prerender = [this, nominal](bool on) {
                runtime_->set_prerender_limit(on ? 1 : nominal);
            };
        }
        if (!config.device.ltpo_rates.empty()) {
            const double lowest = config.device.ltpo_rates.back();
            const double native = config.device.refresh_hz;
            hooks.ltpo_cap = [this, lowest, native](bool on) {
                hw_->request_rate(on ? lowest : native);
            };
        }
        if (plant_ && plant_->level_count() > 1) {
            const int floor = std::min(2, plant_->level_count() - 1);
            hooks.dvfs_cap = [this, floor](bool on) {
                plant_->set_governor_floor(on ? floor : 0);
            };
        }
        if (runtime_) {
            hooks.handoff = [this](Time now) {
                runtime_->force_degrade(now, "governor handoff");
            };
            hooks.handoff_cleared = [this] {
                return !runtime_->degraded();
            };
        }
        governor_ = std::make_unique<Governor>(config.governor,
                                               std::move(hooks));
        const Time interval = config.governor.control_interval > 0
                                  ? config.governor.control_interval
                                  : config.device.period() * 4;
        governor_->install(sim_, *metrics_, interval);
    }
}

RenderSystem::~RenderSystem() = default;

RunReport
RenderSystem::run()
{
    if (ran_)
        panic("RenderSystem::run called twice");
    ran_ = true;

    hw_->start();
    producer_->start(0);

    // Drain margin: enough refreshes for the pipeline and any accumulated
    // buffers to reach the panel after the last segment ends.
    const Time tail = Time(buffers_ + 4) * config_.device.period();
    sim_.run_until(producer_->scenario().total_duration() + tail);
    hw_->stop();
    if (monitor_)
        monitor_->finalize(sim_.now());
    return report();
}

RunReport
RenderSystem::report() const
{
    if (!ran_)
        panic("RenderSystem::report before run");

    RunReport r;
    r.scenario = producer_->scenario().name();
    r.config.mode = to_string(config_.mode);
    r.config.device = config_.device.name;
    r.config.refresh_hz = config_.device.refresh_hz;
    r.config.buffers = buffers_;
    r.config.prerender_limit = prerender_limit();
    r.config.seed = config_.seed;

    const FrameStats &s = *stats_;
    r.fdps = s.fdps();
    r.fd_percent = s.frame_drop_percent();
    r.fps = s.fps();
    r.drops = s.frame_drops();
    r.frames_due = s.frames_due();
    r.presents = s.presents();
    r.direct = s.direct_composition();
    r.stuffed = s.buffer_stuffing();
    r.latency_mean_ms = to_ms(Time(s.latency().mean()));
    // percentile() is NaN on an empty sample set; a run that presented no
    // frames reports 0 latency explicitly so reports stay comparable
    // (and debug_string() stays byte-stable).
    if (s.latency().count() > 0) {
        r.latency_p50_ms = to_ms(Time(s.latency().percentile(50)));
        r.latency_p95_ms = to_ms(Time(s.latency().percentile(95)));
        r.latency_p99_ms = to_ms(Time(s.latency().percentile(99)));
    }
    r.latency_max_ms = to_ms(Time(s.latency().max()));
    r.stutters = count_stutters(s);
    r.deadline_misses = compositor_->missed_deadline();

    r.activity = activity();
    r.energy_mj = PowerModel().energy_mj(r.activity);
    r.pipeline_busy_s = to_seconds(r.activity.pipeline_busy);
    r.frames_produced = r.activity.frames_produced;
    r.predicted_frames = r.activity.predicted_frames;

    if (monitor_)
        r.invariant_violations = monitor_->violations();
    if (injector_)
        r.faults_injected = injector_->injected_total();
    if (runtime_) {
        r.degradations = runtime_->degradations();
        r.repromotions = runtime_->repromotions();
        r.timeline = runtime_->transitions();
    }
    if (dtv_)
        r.dtv_resyncs = dtv_->resyncs();
    if (plant_) {
        r.thermal_on = true;
        r.peak_temp_c = plant_->peak_temp_c();
        r.final_temp_c = plant_->temperature_c();
        r.thermal_trips = plant_->throttle_trips();
        r.dvfs_level_end = plant_->level();
        r.gpu_energy_mj = plant_->gpu_energy_mj();
    }
    if (governor_) {
        r.governor_demotions = governor_->demotions();
        r.governor_promotions = governor_->promotions();
        r.governor_rung_end = governor_->rung();
        // Merge governor transitions into the watchdog timeline in time
        // order (both inputs are already sorted; ties keep the watchdog
        // line first).
        const std::vector<std::string> &gov = governor_->transitions();
        std::vector<std::string> merged;
        merged.reserve(r.timeline.size() + gov.size());
        std::merge(r.timeline.begin(), r.timeline.end(), gov.begin(),
                   gov.end(), std::back_inserter(merged),
                   [](const std::string &a, const std::string &b) {
                       return timeline_ts(a) < timeline_ts(b);
                   });
        r.timeline = std::move(merged);
    }

    r.drop_causes = classifier_->counts();
    r.drops_injected = classifier_->injected_drops();
    std::uint64_t attributed = 0;
    for (int c = 0; c < kDropCauseCount; ++c)
        attributed += r.drop_causes[c];
    if (attributed != r.drops) {
        panic("drop attribution out of sync: %llu causes vs %llu drops",
              (unsigned long long)attributed,
              (unsigned long long)r.drops);
    }
    return r;
}

RunActivity
RenderSystem::activity() const
{
    RunActivity a;
    a.wall_time = producer_->scenario().total_duration();
    a.pipeline_busy = producer_->ui_thread().total_busy() +
                      producer_->render_thread().total_busy();
    a.frames_produced = producer_->frames_started();
    a.dvsync_on = config_.mode == RenderMode::kDvsync;
    a.predictor_overhead = config_.predictor_overhead;
    if (runtime_)
        a.predicted_frames = runtime_->ipl().predictions();
    if (plant_)
        a.gpu_mj = plant_->gpu_energy_mj();
    return a;
}

int
RenderSystem::prerender_limit() const
{
    return fpe_ ? fpe_->prerender_limit() : 0;
}

void
RenderSystem::export_trace(TraceLog &log) const
{
    char name[64];
    for (const FrameRecord &rec : producer_->records()) {
        std::snprintf(name, sizeof(name), "frame %lld.%lld%s",
                      (long long)rec.segment_index, (long long)rec.slot,
                      rec.pre_rendered ? " (pre)" : "");
        if (rec.ui_start != kTimeNone)
            log.duration("ui thread", name, rec.ui_start, rec.ui_end);
        if (rec.render_start != kTimeNone) {
            log.duration("render thread", name, rec.render_start,
                         rec.render_end);
        }
        if (rec.gpu_start != kTimeNone)
            log.duration("gpu", name, rec.gpu_start, rec.gpu_end);
        if (rec.queue_time != kTimeNone && rec.present_time != kTimeNone) {
            log.duration("buffer queue", name, rec.queue_time,
                         rec.present_time);
        }
    }
    for (const RefreshLog &r : stats_->refreshes()) {
        if (r.presented)
            log.instant("display", "present", r.time);
        else if (r.drop)
            log.instant("display", "FRAME DROP", r.time);
        log.counter("queued buffers", r.time,
                    double(queue_->queued_count()));
    }
    // Flow events link each frame's slices across the tracks above, so
    // one frame can be followed UI -> render -> GPU -> queue -> display.
    forensics().export_flows(log);
}

FrameForensics
RenderSystem::forensics() const
{
    if (!ran_)
        panic("RenderSystem::forensics before run");
    FrameForensics f;
    f.add_surface("", *producer_, *stats_, classifier_.get());
    return f;
}

bool
RenderSystem::save_forensics(const std::string &path) const
{
    return forensics().save(path, producer_->scenario().name(),
                            to_string(config_.mode), metrics_.get());
}

RunReport
run_experiment(const SystemConfig &config, const Scenario &scenario)
{
    RenderSystem system(config, scenario);
    return system.run();
}

} // namespace dvs
