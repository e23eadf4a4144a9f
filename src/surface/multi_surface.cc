#include "surface/multi_surface.h"

#include <algorithm>
#include <cstdio>

#include "core/dvsync_config.h"
#include "metrics/power_model.h"
#include "metrics/stutter_model.h"
#include "sim/logging.h"

namespace dvs {

// ----- MultiSurfaceCompositor ----------------------------------------

MultiSurfaceCompositor::MultiSurfaceCompositor(HwVsyncGenerator &hw,
                                               ExecResource &gpu,
                                               Time base_cost,
                                               Time per_layer_cost)
    : gpu_(gpu), base_cost_(base_cost), per_layer_cost_(per_layer_cost)
{
    if (base_cost < 0 || per_layer_cost < 0)
        fatal("composition costs must be >= 0");
    hw.add_listener([this](const VsyncEdge &edge) { on_edge(edge); });
}

void
MultiSurfaceCompositor::observe(Panel &panel)
{
    panel.add_present_listener([this](const PresentEvent &ev) {
        if (!ev.repeat)
            ++latched_this_edge_;
    });
}

void
MultiSurfaceCompositor::on_edge(const VsyncEdge &)
{
    // Runs after every panel's latch for this edge (panels registered
    // their HW listeners first). Composition only costs GPU time when at
    // least one layer changed; a fully-static screen re-scans the old
    // composition.
    const int layers = latched_this_edge_;
    latched_this_edge_ = 0;
    if (layers == 0)
        return;
    ++compositions_;
    layers_latched_ += std::uint64_t(layers);
    peak_layers_ = std::max(peak_layers_, layers);
    const Time cost = base_cost_ + per_layer_cost_ * Time(layers);
    gpu_time_ += cost;
    if (cost > 0)
        gpu_.run(cost, [] {});
}

// ----- MultiSurfaceSystem --------------------------------------------

MultiSurfaceSystem::MultiSurfaceSystem(std::vector<SurfaceDesc> descs,
                                       const MultiSurfaceConfig &config)
    : config_(config), base_buffers_(config.device.vsync_buffers),
      sim_(config.seed)
{
    if (descs.empty())
        fatal("multi-surface session needs at least one surface");

    hw_ = std::make_unique<HwVsyncGenerator>(sim_,
                                             config.device.refresh_hz);
    if (config.vsync_jitter > 0)
        hw_->set_jitter(config.vsync_jitter, &sim_.rng());

    // Pass 1: queues and panels. Panels register their HW-VSync
    // listeners here, so every layer latches before the software
    // distributor, the DTVs, and the display compositor see the edge —
    // the same ordering contract RenderSystem keeps for one surface.
    surfaces_.reserve(descs.size());
    for (SurfaceDesc &d : descs) {
        Surface s;
        s.desc = std::move(d);
        s.queue = std::make_unique<BufferQueue>(base_buffers_);
        s.panel = std::make_unique<Panel>(*hw_, *s.queue);
        s.latch = std::make_unique<Compositor>(*s.panel,
                                               config.latch_lead);
        surfaces_.push_back(std::move(s));
    }

    dist_ = std::make_unique<VsyncDistributor>(sim_, *hw_);
    // With private GPUs the surfaces are fully decoupled, so each edge
    // fans out as one delivery event per surface.
    if (!config.shared_gpu)
        dist_->set_per_tag_delivery(true);
    gpu_ = std::make_unique<ExecResource>(sim_, "device gpu");
    // A producer only pumps its own GPU backlog when its own job
    // finishes; on a shared GPU the finishing job may belong to another
    // surface, so every completion re-kicks all of them.
    gpu_->add_done_listener([this] {
        for (Surface &s : surfaces_)
            s.producer->kick_gpu();
    });

    // Pass 2: the per-surface pipelines.
    for (std::size_t i = 0; i < surfaces_.size(); ++i) {
        Surface &s = surfaces_[i];
        s.producer = std::make_unique<Producer>(sim_, s.desc.scenario,
                                                *s.queue, *dist_);
        if (config.shared_gpu)
            s.producer->use_shared_gpu(*gpu_);
        // Tag 0 is shared work (vsync edges, device GPU, arbiter,
        // compositor); surface i's events carry tag i + 1.
        s.producer->set_event_tag(EventTag(i) + 1);

        if (s.desc.dvsync_aware) {
            DvsyncConfig dc;
            dc.prerender_limit = prerender_limit_for_buffers(base_buffers_);
            s.runtime = std::make_unique<DvsyncRuntime>(dc);
            s.dtv = std::make_unique<DisplayTimeVirtualizer>(sim_, *hw_,
                                                             *s.panel, dc);
            s.fpe = std::make_unique<FramePreExecutor>(
                *s.dtv, *s.queue, *s.panel, *s.runtime, dc);
            s.runtime->bind(*s.producer, *s.dtv, *s.fpe, *s.queue);
            s.producer->set_pacer(s.fpe.get());
        } else {
            s.vsync_pacer = std::make_unique<VsyncPacer>();
            s.producer->set_pacer(s.vsync_pacer.get());
        }

        s.stats = std::make_unique<FrameStats>(*s.producer, *s.panel);

        // Per-surface drop attribution; after stats (listener order on
        // the present fence). Only the fault surface sees the plan.
        const int fault_target =
            config.faults ? std::clamp(config.fault_surface, 0,
                                       int(surfaces_.size()) - 1)
                          : -1;
        DropClassifier::Context cc;
        cc.producer = s.producer.get();
        cc.queue = s.queue.get();
        cc.stats = s.stats.get();
        cc.runtime = s.runtime.get();
        cc.dtv = s.dtv.get();
        cc.plan = int(i) == fault_target ? config.faults.get() : nullptr;
        cc.gpu = config.shared_gpu ? gpu_.get() : &s.producer->gpu();
        cc.shared_gpu = config.shared_gpu;
        s.classifier = std::make_unique<DropClassifier>(cc, *s.panel);

        if (config.monitor_invariants) {
            s.monitor = std::make_unique<InvariantMonitor>();
            // The arbiter may deepen the queue up to max_extra_buffers,
            // raising the FPE limit with it; the depth bound must admit
            // the deepest configuration (+1 for the in-flight frame).
            const int depth =
                s.desc.dvsync_aware
                    ? prerender_limit_for_buffers(
                          base_buffers_ + s.desc.max_extra_buffers) +
                          1
                    : 0;
            s.monitor->attach(*s.producer, *s.panel, depth);
        }
        if (s.runtime && (config.watchdog || config.faults))
            s.runtime->attach_watchdog(*s.panel, s.monitor.get());
        if (s.runtime) {
            // Registered after the watchdog's own listener, so the
            // degradation state is already updated for this present when
            // the arbiter hears about it.
            const int id = int(i);
            s.panel->add_present_listener(
                [this, id](const PresentEvent &ev) {
                    on_surface_present(id, ev);
                });
        }
    }

    compositor_ = std::make_unique<MultiSurfaceCompositor>(
        *hw_, *gpu_, config.compose_base, config.compose_per_layer);
    for (Surface &s : surfaces_)
        compositor_->observe(*s.panel);

    if (config.monitor_invariants) {
        display_monitor_ = std::make_unique<InvariantMonitor>();
        for (std::size_t i = 0; i < surfaces_.size(); ++i)
            display_monitor_->watch_latches(int(i), *surfaces_[i].panel);
    }

    arbiter_ = std::make_unique<BufferBudgetArbiter>(config.budget_mb,
                                                     config.policy);
    for (const Surface &s : surfaces_) {
        arbiter_->add_surface(s.desc.name, s.desc.buffer_mb,
                              s.desc.max_extra_buffers, s.desc.weight,
                              s.desc.dvsync_aware);
    }
    arbiter_->set_apply(
        [this](int id, int extra) { apply_extra(id, extra); });
    arbiter_->set_budget_check(
        [this](Time now, double used_mb, double budget_mb) {
            if (display_monitor_)
                display_monitor_->on_budget(now, used_mb, budget_mb);
            AllocSample sample;
            sample.at = now;
            sample.used_mb = used_mb;
            alloc_log_.push_back(sample);
        });

    if (config.faults) {
        const int fi = std::clamp(config.fault_surface, 0,
                                  int(surfaces_.size()) - 1);
        Surface &s = surfaces_[std::size_t(fi)];
        injector_ = std::make_unique<FaultInjector>(sim_, config.faults);
        injector_->arm(*hw_, *s.queue, *s.latch, *s.producer);
    }

    int max_extra = 0;
    for (const Surface &s : surfaces_) {
        session_end_ = std::max(
            session_end_,
            s.desc.start_at + s.desc.scenario.total_duration());
        max_extra = std::max(max_extra, s.desc.max_extra_buffers);
    }
    // The drain margin RenderSystem keeps, deep enough for the deepest
    // queue the arbiter may grant.
    horizon_ = session_end_ +
               Time(base_buffers_ + max_extra + 4) * config.device.period();
    for (Surface &s : surfaces_) {
        const LogCapacity logs = log_capacity(
            s.desc.scenario, horizon_, config.device.max_refresh_hz());
        s.producer->reserve_records(logs.frames);
        s.stats->reserve(logs);
    }

    if (config.forensics) {
        metrics_ = std::make_unique<MetricsRegistry>();
        metrics_->register_counter("gpu.busy_ns", [this] {
            return double(gpu_->total_busy());
        });
        metrics_->register_gauge("arbiter.used_mb", [this] {
            return arbiter_->used_mb();
        });
        metrics_->register_counter("arbiter.rearbitrations", [this] {
            return double(arbiter_->rearbitrations());
        });
        for (std::size_t i = 0; i < surfaces_.size(); ++i) {
            Surface *sp = &surfaces_[i];
            const std::string p = sp->desc.name + ".";
            metrics_->register_gauge(p + "queue.depth", [sp] {
                return double(sp->queue->queued_count());
            });
            metrics_->register_counter(p + "presents", [sp] {
                return double(sp->panel->presented());
            });
            metrics_->register_counter(p + "drops", [sp] {
                return double(sp->stats->frame_drops());
            });
            if (sp->runtime) {
                metrics_->register_gauge(p + "degraded", [sp] {
                    return sp->runtime->degraded() ? 1.0 : 0.0;
                });
            }
        }
        // Same sparse default cadence as RenderSystem (16 refresh
        // periods); dense sampling is opt-in via with_metrics_interval.
        const Time interval = config.metrics_interval > 0
                                  ? config.metrics_interval
                                  : config.device.period() * 16;
        metrics_->install(sim_, interval);
    }

    sim_.events().reserve(128 * surfaces_.size());
}

MultiSurfaceSystem::~MultiSurfaceSystem() = default;

void
MultiSurfaceSystem::apply_extra(int id, int extra)
{
    Surface &s = surfaces_[std::size_t(id)];
    const int capacity = base_buffers_ + extra;
    s.queue->set_capacity(capacity);
    // Oblivious surfaces just get a deeper FIFO (their pacing never
    // fills it); aware surfaces convert the extra slots into pre-render
    // depth. Revocation shrinks lazily as the display drains slots.
    if (s.fpe)
        s.fpe->set_prerender_limit(prerender_limit_for_buffers(capacity));
    AllocSample sample;
    sample.at = sim_.now();
    sample.surface = id;
    sample.extra = extra;
    alloc_log_.push_back(sample);
}

void
MultiSurfaceSystem::on_surface_present(int id, const PresentEvent &)
{
    Surface &s = surfaces_[std::size_t(id)];
    if (!s.runtime || !arbiter_)
        return;
    const bool degraded = s.runtime->degraded();
    if (degraded != s.degraded_seen) {
        s.degraded_seen = degraded;
        arbiter_->on_surface_degraded(id, degraded, sim_.now());
    }
}

RunReport
MultiSurfaceSystem::run()
{
    if (ran_)
        panic("MultiSurfaceSystem::run called twice");
    ran_ = true;

    hw_->start();
    // Initial allocation happens before any frame renders, so surfaces
    // start with their arbitrated depth instead of growing mid-segment.
    arbiter_->arbitrate(0);

    for (std::size_t i = 0; i < surfaces_.size(); ++i) {
        Surface &s = surfaces_[i];
        s.producer->start(s.desc.start_at);
        // The surface leaves the arbiter's pool when its scenario ends;
        // its grant returns to the budget and the survivors re-split it.
        const Time ends = s.desc.start_at + s.desc.scenario.total_duration();
        const int id = int(i);
        sim_.events().schedule(
            ends, [this, id] { arbiter_->on_surface_exit(id, sim_.now()); },
            EventPriority::kDefault);
    }

    sim_.run_until(horizon_);
    hw_->stop();
    for (Surface &s : surfaces_) {
        if (s.monitor)
            s.monitor->finalize(sim_.now());
    }
    if (display_monitor_)
        display_monitor_->finalize(sim_.now());
    return report();
}

RunReport
MultiSurfaceSystem::report() const
{
    if (!ran_)
        panic("MultiSurfaceSystem::report before run");

    RunReport r;
    r.scenario = "multi[";
    for (std::size_t i = 0; i < surfaces_.size(); ++i) {
        if (i > 0)
            r.scenario += '+';
        r.scenario += surfaces_[i].desc.name;
    }
    r.scenario += ']';
    r.config.mode = std::string("Multi/") + to_string(config_.policy);
    r.config.device = config_.device.name;
    r.config.refresh_hz = config_.device.refresh_hz;
    r.config.buffers = base_buffers_;
    r.config.prerender_limit = 0;
    r.config.seed = config_.seed;

    r.activity.wall_time = session_end_;
    r.activity.dvsync_on = false;

    for (std::size_t i = 0; i < surfaces_.size(); ++i) {
        const Surface &s = surfaces_[i];
        const FrameStats &st = *s.stats;

        SurfaceReport sr;
        sr.name = s.desc.name;
        sr.mode = s.desc.dvsync_aware ? "D-VSync" : "VSync";
        sr.buffers = s.queue->capacity();
        sr.extra_buffers = arbiter_->peak_extra_of(int(i));
        sr.buffer_mb = s.desc.buffer_mb;
        sr.fdps = st.fdps();
        sr.fd_percent = st.frame_drop_percent();
        sr.drops = st.frame_drops();
        sr.frames_due = st.frames_due();
        sr.presents = st.presents();
        if (st.latency().count() > 0)
            sr.latency_p95_ms = to_ms(Time(st.latency().percentile(95)));
        if (s.monitor)
            sr.invariant_violations = s.monitor->violations();
        if (s.runtime) {
            sr.degradations = s.runtime->degradations();
            sr.repromotions = s.runtime->repromotions();
        }
        sr.drop_causes = s.classifier->counts();
        sr.drops_injected = s.classifier->injected_drops();
        std::uint64_t attributed = 0;
        for (int c = 0; c < kDropCauseCount; ++c) {
            attributed += sr.drop_causes[c];
            r.drop_causes[c] += sr.drop_causes[c];
        }
        if (attributed != st.frame_drops()) {
            panic("surface %s drop attribution out of sync: "
                  "%llu causes vs %llu drops",
                  s.desc.name.c_str(), (unsigned long long)attributed,
                  (unsigned long long)st.frame_drops());
        }
        r.drops_injected += sr.drops_injected;
        r.surfaces.push_back(std::move(sr));

        r.drops += st.frame_drops();
        r.frames_due += st.frames_due();
        r.presents += st.presents();
        r.direct += st.direct_composition();
        r.stuffed += st.buffer_stuffing();
        r.stutters += count_stutters(st);
        r.deadline_misses += s.latch->missed_deadline();
        r.invariant_violations += s.monitor ? s.monitor->violations() : 0;
        if (s.runtime) {
            r.degradations += s.runtime->degradations();
            r.repromotions += s.runtime->repromotions();
            r.activity.predicted_frames += s.runtime->ipl().predictions();
            r.activity.dvsync_on = true;
            for (const std::string &line : s.runtime->transitions())
                r.timeline.push_back("[" + s.desc.name + "] " + line);
        }
        if (s.dtv)
            r.dtv_resyncs += s.dtv->resyncs();
        r.activity.pipeline_busy += s.producer->ui_thread().total_busy() +
                                    s.producer->render_thread().total_busy();
        r.activity.frames_produced += s.producer->frames_started();
    }

    // Display aggregates: total drops per second of session wall time
    // (per-surface FDPS stays normalized to each surface's own active
    // duration, the paper's definition).
    const double wall_s = to_seconds(session_end_);
    r.fdps = wall_s > 0 ? double(r.drops) / wall_s : 0.0;
    r.fd_percent =
        r.frames_due > 0 ? 100.0 * double(r.drops) / double(r.frames_due)
                         : 0.0;
    r.fps = wall_s > 0 ? double(r.presents) / wall_s : 0.0;

    r.energy_mj = PowerModel().energy_mj(r.activity);
    r.pipeline_busy_s = to_seconds(r.activity.pipeline_busy);
    r.frames_produced = r.activity.frames_produced;
    r.predicted_frames = r.activity.predicted_frames;

    if (display_monitor_)
        r.invariant_violations += display_monitor_->violations();
    if (injector_)
        r.faults_injected = injector_->injected_total();

    r.budget_mb = arbiter_->budget_mb();
    r.budget_used_mb = arbiter_->peak_used_mb();
    r.rearbitrations = arbiter_->rearbitrations();
    return r;
}

void
MultiSurfaceSystem::export_trace(TraceLog &log) const
{
    char name[64];
    for (const Surface &s : surfaces_) {
        const std::string prefix = s.desc.name + "/";
        for (const FrameRecord &rec : s.producer->records()) {
            std::snprintf(name, sizeof(name), "frame %lld.%lld%s",
                          (long long)rec.segment_index,
                          (long long)rec.slot,
                          rec.pre_rendered ? " (pre)" : "");
            if (rec.ui_start != kTimeNone) {
                log.duration(prefix + "ui thread", name, rec.ui_start,
                             rec.ui_end);
            }
            if (rec.render_start != kTimeNone) {
                log.duration(prefix + "render thread", name,
                             rec.render_start, rec.render_end);
            }
            if (rec.gpu_start != kTimeNone) {
                log.duration(prefix + "gpu", name, rec.gpu_start,
                             rec.gpu_end);
            }
            if (rec.queue_time != kTimeNone &&
                rec.present_time != kTimeNone) {
                log.duration(prefix + "buffer queue", name,
                             rec.queue_time, rec.present_time);
            }
        }
        for (const RefreshLog &ref : s.stats->refreshes()) {
            if (ref.presented)
                log.instant(prefix + "display", "present", ref.time);
            else if (ref.drop)
                log.instant(prefix + "display", "FRAME DROP", ref.time);
        }

        export_queue_depth(log, "queue depth " + s.desc.name,
                           s.producer->records());
    }

    // Flow events: follow one frame across its surface's tracks.
    forensics().export_flows(log);

    // Arbiter history: per-surface grants and the budget line.
    for (const AllocSample &sample : alloc_log_) {
        if (sample.surface >= 0) {
            log.counter("extra buffers " +
                            surfaces_[std::size_t(sample.surface)].desc.name,
                        sample.at, double(sample.extra));
        } else {
            log.counter("arbiter used MB", sample.at, sample.used_mb);
            log.counter("arbiter budget MB", sample.at,
                        arbiter_->budget_mb());
        }
    }
}

FrameForensics
MultiSurfaceSystem::forensics() const
{
    if (!ran_)
        panic("MultiSurfaceSystem::forensics before run");
    FrameForensics f;
    for (const Surface &s : surfaces_) {
        f.add_surface(s.desc.name, *s.producer, *s.stats,
                      s.classifier.get());
    }
    return f;
}

bool
MultiSurfaceSystem::save_forensics(const std::string &path) const
{
    std::string scenario = "multi[";
    for (std::size_t i = 0; i < surfaces_.size(); ++i) {
        if (i > 0)
            scenario += '+';
        scenario += surfaces_[i].desc.name;
    }
    scenario += ']';
    return forensics().save(path, scenario,
                            std::string("Multi/") +
                                to_string(config_.policy),
                            metrics_.get());
}

RunReport
run_multi_surface(std::vector<SurfaceDesc> descs,
                  const MultiSurfaceConfig &config)
{
    MultiSurfaceSystem system(std::move(descs), config);
    return system.run();
}

} // namespace dvs
