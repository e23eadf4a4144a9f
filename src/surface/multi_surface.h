/**
 * @file
 * Multi-surface composition: several producers sharing one display.
 *
 * RenderSystem assembles one producer against one panel — the paper's
 * single-app evaluation setup. A real device runs D-VSync as an OS
 * service: the foreground app, the status bar, an overlay, a game each
 * render into their own BufferQueue through their own UI/render pipeline,
 * contend for one device GPU, and a display-level compositor latches at
 * most one buffer per surface per refresh, paying a per-layer
 * composition cost. MultiSurfaceSystem assembles that device:
 *
 *  - one HwVsyncGenerator and one VsyncDistributor drive every surface;
 *  - each surface owns its queue, panel (its layer's latch point),
 *    latch-deadline compositor, producer, metrics, and invariant
 *    monitor; D-VSync-aware surfaces get a full FPE/DTV/runtime stack,
 *    oblivious ones pace with conventional software VSync;
 *  - every producer's GPU stage is routed to one shared ExecResource
 *    (Producer::use_shared_gpu); a done-listener re-pumps the other
 *    surfaces so work parked behind a contender's job resumes;
 *  - the MultiSurfaceCompositor charges the shared GPU a base + per-layer
 *    cost on every refresh that latched at least one buffer;
 *  - a BufferBudgetArbiter allocates extra pre-render buffers across the
 *    aware surfaces under a device-wide §6.4 memory budget,
 *    re-arbitrating online when a surface exits or is degraded to the
 *    VSync fallback by its runtime watchdog;
 *  - a display-level InvariantMonitor checks the cross-surface
 *    invariants (one latch per surface per refresh, arbiter never over
 *    budget) while each surface's own monitor keeps the per-surface
 *    FIFO/conservation/depth checks.
 *
 * The result is one RunReport with display aggregates plus a
 * SurfaceReport slice per surface.
 */

#ifndef DVS_SURFACE_MULTI_SURFACE_H
#define DVS_SURFACE_MULTI_SURFACE_H

#include <memory>
#include <vector>

#include "buffer/buffer_queue.h"
#include "core/display_time_virtualizer.h"
#include "core/dvsync_runtime.h"
#include "core/frame_pre_executor.h"
#include "display/device_config.h"
#include "display/hw_vsync.h"
#include "display/panel.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/invariant_monitor.h"
#include "metrics/frame_stats.h"
#include "metrics/run_report.h"
#include "obs/drop_classifier.h"
#include "obs/frame_forensics.h"
#include "obs/metrics_registry.h"
#include "pipeline/compositor.h"
#include "pipeline/producer.h"
#include "sim/simulator.h"
#include "sim/tracing.h"
#include "surface/budget_arbiter.h"
#include "surface/surface_desc.h"
#include "vsyncsrc/vsync_distributor.h"

namespace dvs {

/** Device-level configuration of a multi-surface session. */
struct MultiSurfaceConfig {
    DeviceConfig device; ///< shared display (default Pixel 5)
    std::uint64_t seed = 1;

    /** Extra-buffer memory budget shared by all surfaces (§6.4), MB. */
    double budget_mb = 0.0;
    ArbiterPolicy policy = ArbiterPolicy::kWeighted;

    /** Per-surface SurfaceFlinger-style latch deadline (0 = direct). */
    Time latch_lead = 0;

    /**
     * Display composition cost charged to the shared GPU per refresh
     * that latched at least one layer: base + per_layer × layers.
     */
    Time compose_base = 200'000;      ///< 0.2 ms
    Time compose_per_layer = 100'000; ///< 0.1 ms per latched layer

    /** Gaussian HW-VSync jitter (0 = ideal panel). */
    Time vsync_jitter = 0;

    /** Run the per-surface and display-level invariant monitors. */
    bool monitor_invariants = true;

    /**
     * Arm the degradation watchdog on every aware surface's runtime.
     * Also armed automatically whenever a fault plan is installed.
     */
    bool watchdog = false;

    /** Fault plan injected into fault_surface; null = no injection. */
    std::shared_ptr<const FaultPlan> faults;
    int fault_surface = 0;

    /** Enable the metrics registry + forensic exports (see SystemConfig). */
    bool forensics = false;

    /** Metrics sampling cadence; 0 derives the device refresh period. */
    Time metrics_interval = 0;

    /**
     * Whether all surfaces contend for one shared device GPU (the
     * default, and the physics every existing golden pins) or each
     * surface renders on a private GPU. Private GPUs decouple the
     * surfaces' pipelines, so each vsync edge is delivered as one event
     * per surface (VsyncDistributor::set_per_tag_delivery).
     */
    bool shared_gpu = true;

    MultiSurfaceConfig() : device(pixel5()) {}

    // ----- fluent named setters ----------------------------------------

    MultiSurfaceConfig &with_device(const DeviceConfig &d)
    {
        device = d;
        return *this;
    }
    MultiSurfaceConfig &with_seed(std::uint64_t s)
    {
        seed = s;
        return *this;
    }
    MultiSurfaceConfig &with_budget_mb(double mb)
    {
        budget_mb = mb;
        return *this;
    }
    MultiSurfaceConfig &with_policy(ArbiterPolicy p)
    {
        policy = p;
        return *this;
    }
    MultiSurfaceConfig &with_latch_lead(Time lead)
    {
        latch_lead = lead;
        return *this;
    }
    MultiSurfaceConfig &with_compose_cost(Time base, Time per_layer)
    {
        compose_base = base;
        compose_per_layer = per_layer;
        return *this;
    }
    MultiSurfaceConfig &with_vsync_jitter(Time jitter)
    {
        vsync_jitter = jitter;
        return *this;
    }
    MultiSurfaceConfig &with_monitor_invariants(bool on)
    {
        monitor_invariants = on;
        return *this;
    }
    MultiSurfaceConfig &with_watchdog(bool on)
    {
        watchdog = on;
        return *this;
    }
    MultiSurfaceConfig &with_faults(std::shared_ptr<const FaultPlan> plan,
                                    int surface = 0)
    {
        faults = std::move(plan);
        fault_surface = surface;
        return *this;
    }
    MultiSurfaceConfig &with_forensics(bool on)
    {
        forensics = on;
        return *this;
    }
    MultiSurfaceConfig &with_metrics_interval(Time interval)
    {
        metrics_interval = interval;
        return *this;
    }
    MultiSurfaceConfig &with_shared_gpu(bool on)
    {
        shared_gpu = on;
        return *this;
    }
};

/**
 * Display-level composition stage: counts the layers latched at each
 * refresh (via the per-surface present fences) and charges the shared
 * GPU the composition cost after the latch pass of every edge.
 */
class MultiSurfaceCompositor
{
  public:
    /**
     * Registers an HW-VSync listener; construct AFTER every Panel so the
     * charge lands once all layers of the edge have latched.
     */
    MultiSurfaceCompositor(HwVsyncGenerator &hw, ExecResource &gpu,
                           Time base_cost, Time per_layer_cost);

    /** Observe @p panel as one layer of the display. */
    void observe(Panel &panel);

    /** Refreshes that latched at least one layer (composition ran). */
    std::uint64_t compositions() const { return compositions_; }

    /** Total layers latched across all refreshes. */
    std::uint64_t layers_latched() const { return layers_latched_; }

    /** Most layers latched at one refresh. */
    int peak_layers() const { return peak_layers_; }

    /** GPU time consumed by composition (nominal, pre-fault). */
    Time gpu_time() const { return gpu_time_; }

  private:
    void on_edge(const VsyncEdge &edge);

    ExecResource &gpu_;
    Time base_cost_;
    Time per_layer_cost_;
    int latched_this_edge_ = 0;
    std::uint64_t compositions_ = 0;
    std::uint64_t layers_latched_ = 0;
    int peak_layers_ = 0;
    Time gpu_time_ = 0;
};

/**
 * The assembled multi-surface device. Construct from the surface
 * declarations and the device config, run(), read the report.
 */
class MultiSurfaceSystem
{
  public:
    MultiSurfaceSystem(std::vector<SurfaceDesc> descs,
                       const MultiSurfaceConfig &config);
    ~MultiSurfaceSystem();

    MultiSurfaceSystem(const MultiSurfaceSystem &) = delete;
    MultiSurfaceSystem &operator=(const MultiSurfaceSystem &) = delete;

    /**
     * Run every surface's scenario to completion (plus a drain margin)
     * and return the unified report. Surfaces start at their
     * SurfaceDesc::start_at and leave the arbiter's pool when their
     * scenario ends.
     */
    RunReport run();

    /** The unified result of the finished run. Valid only after run(). */
    RunReport report() const;

    // ----- component access -------------------------------------------

    std::size_t size() const { return surfaces_.size(); }
    const MultiSurfaceConfig &config() const { return config_; }
    Simulator &sim() { return sim_; }
    HwVsyncGenerator &hw_vsync() { return *hw_; }
    ExecResource &gpu() { return *gpu_; }
    BufferBudgetArbiter &arbiter() { return *arbiter_; }
    MultiSurfaceCompositor &compositor() { return *compositor_; }

    const SurfaceDesc &desc(int i) const { return surfaces_[i].desc; }
    BufferQueue &queue(int i) { return *surfaces_[i].queue; }
    Panel &panel(int i) { return *surfaces_[i].panel; }
    Producer &producer(int i) { return *surfaces_[i].producer; }
    FrameStats &stats(int i) { return *surfaces_[i].stats; }

    /** D-VSync components of surface @p i; null when oblivious. */
    DvsyncRuntime *runtime(int i) { return surfaces_[i].runtime.get(); }
    FramePreExecutor *fpe(int i) { return surfaces_[i].fpe.get(); }

    /** Per-surface monitor; null when monitoring is off. */
    InvariantMonitor *monitor(int i)
    {
        return surfaces_[i].monitor.get();
    }

    /** Cross-surface monitor; null when monitoring is off. */
    InvariantMonitor *display_monitor() { return display_monitor_.get(); }
    const InvariantMonitor *display_monitor() const
    {
        return display_monitor_.get();
    }

    /** Baseline queue capacity every surface starts with. */
    int base_buffers() const { return base_buffers_; }

    /**
     * Export the finished run as Chrome trace events: one set of tracks
     * per surface (UI/render/GPU stages, buffer-queue residency,
     * presents and drops), a queue-depth counter per surface, and the
     * arbiter's allocation history (extra buffers per surface and the
     * memory in use against the budget).
     */
    void export_trace(TraceLog &log) const;

    /** Drop classifier of surface @p i (always on). */
    const DropClassifier &classifier(int i) const
    {
        return *surfaces_[std::size_t(i)].classifier;
    }

    /** Metrics registry; null unless config.forensics is on. */
    MetricsRegistry *metrics() { return metrics_.get(); }

    /** Per-frame causal chains of every surface (post-run). */
    FrameForensics forensics() const;

    /** Write the forensics dump as JSON to @p path. */
    bool save_forensics(const std::string &path) const;

  private:
    struct Surface {
        SurfaceDesc desc;
        std::unique_ptr<BufferQueue> queue;
        std::unique_ptr<Panel> panel;
        std::unique_ptr<Compositor> latch;
        std::unique_ptr<Producer> producer;
        std::unique_ptr<FramePacer> vsync_pacer;
        std::unique_ptr<DvsyncRuntime> runtime;
        std::unique_ptr<DisplayTimeVirtualizer> dtv;
        std::unique_ptr<FramePreExecutor> fpe;
        std::unique_ptr<FrameStats> stats;
        std::unique_ptr<DropClassifier> classifier;
        std::unique_ptr<InvariantMonitor> monitor;
        bool degraded_seen = false; ///< last watchdog state forwarded
    };

    /** One arbiter decision, kept for the trace export. */
    struct AllocSample {
        Time at = 0;
        int surface = -1;   ///< -1 for budget (used_mb) samples
        int extra = 0;
        double used_mb = 0.0;
    };

    void apply_extra(int i, int extra);
    void on_surface_present(int i, const PresentEvent &ev);

    MultiSurfaceConfig config_;
    int base_buffers_;
    Simulator sim_;
    std::unique_ptr<HwVsyncGenerator> hw_;
    std::unique_ptr<VsyncDistributor> dist_;
    std::unique_ptr<ExecResource> gpu_;
    std::vector<Surface> surfaces_;
    std::unique_ptr<MultiSurfaceCompositor> compositor_;
    std::unique_ptr<InvariantMonitor> display_monitor_;
    std::unique_ptr<BufferBudgetArbiter> arbiter_;
    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<MetricsRegistry> metrics_;
    std::vector<AllocSample> alloc_log_;
    Time session_end_ = 0; ///< last scenario's end time
    Time horizon_ = 0;     ///< run() ends here: session end + drain margin
    bool ran_ = false;
};

/**
 * One-call entry point: assemble @p descs under @p config, run, report.
 */
RunReport run_multi_surface(std::vector<SurfaceDesc> descs,
                            const MultiSurfaceConfig &config);

} // namespace dvs

#endif // DVS_SURFACE_MULTI_SURFACE_H
