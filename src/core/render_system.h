/**
 * @file
 * RenderSystem: the assembled rendering stack.
 *
 * One-stop facade that wires a complete simulated device — HW-VSync
 * generator, buffer queue, panel, compositor, software vsync distributor,
 * producer — under either the conventional VSync architecture or D-VSync
 * (FPE + DTV + IPL + runtime), runs a scenario, and exposes the metrics.
 * This is the entry point for the examples, tests, and benches.
 */

#ifndef DVS_CORE_RENDER_SYSTEM_H
#define DVS_CORE_RENDER_SYSTEM_H

#include <memory>
#include <optional>

#include "buffer/buffer_queue.h"
#include "governor/governor.h"
#include "core/display_time_virtualizer.h"
#include "core/dvsync_config.h"
#include "core/dvsync_runtime.h"
#include "core/frame_pre_executor.h"
#include "display/device_config.h"
#include "display/hw_vsync.h"
#include "display/panel.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/invariant_monitor.h"
#include "metrics/frame_stats.h"
#include "metrics/power_model.h"
#include "metrics/run_report.h"
#include "obs/drop_classifier.h"
#include "obs/frame_forensics.h"
#include "obs/metrics_registry.h"
#include "pipeline/compositor.h"
#include "pipeline/producer.h"
#include "pipeline/swap_interval_pacer.h"
#include "sim/simulator.h"
#include "sim/tracing.h"
#include "vsyncsrc/vsync_distributor.h"
#include "workload/scenario.h"

namespace dvs {

/** Rendering architecture under test. */
enum class RenderMode {
    kVsync,  ///< conventional VSync pipeline (§2)
    kDvsync, ///< decoupled rendering and displaying (§4)
    kPaced,  ///< Swappy-style auto swap-interval pacing (baseline)
};

const char *to_string(RenderMode m);

/**
 * Thermal/DVFS plant configuration. Off by default — the GPU then runs
 * at a fixed nominal clock with zero plant-accounted energy, exactly the
 * pre-plant behavior (goldens stay byte-identical).
 */
struct ThermalSpec {
    bool enabled = false;

    /**
     * Envelope scale applied to the device's §6 thermal budget; < 1
     * models a constrained chassis (thin phone, hot day) where the same
     * workload trips the throttle earlier.
     */
    double envelope_scale = 1.0;

    /** Explicit plant parameters; unset derives them from the device. */
    std::optional<ThermalParams> params;
};

/** Full configuration of a simulated run. */
struct SystemConfig {
    DeviceConfig device;          ///< Table-1 preset (default Pixel 5)
    RenderMode mode = RenderMode::kVsync;

    /**
     * Buffer-queue capacity. 0 = architecture default: the device's
     * vsync_buffers for VSync, vsync_buffers + 1 for D-VSync (the paper's
     * default D-VSync configuration uses one extra buffer).
     */
    int buffers = 0;

    /** Pre-render limit; -1 derives buffers − 2 (D-VSync only). */
    int prerender_limit = -1;

    std::uint64_t seed = 1;

    /** Gaussian HW-VSync jitter (0 = ideal panel). */
    Time vsync_jitter = 0;

    /** DTV calibration interval in edges. */
    int dtv_calibration_interval = 1;

    /** SurfaceFlinger-style latch deadline (0 = direct path). */
    Time latch_lead = 0;

    /** VSync-app / VSync-rs offsets from the hardware edge. */
    Time vsync_app_offset = 0;
    Time vsync_rs_offset = 0;

    /** Predictor fitting cost (decoupling-aware apps). */
    Time predictor_overhead = 151'600;

    /** Swap-interval pacing knobs (kPaced mode only). */
    SwapIntervalConfig pacing;

    /**
     * Fault-injection plan for chaos runs; null = no injection. Shared
     * so a sweep can replay one plan across many configurations.
     */
    std::shared_ptr<const FaultPlan> faults;

    /** Run the always-on invariant monitor (passive; cheap). */
    bool monitor_invariants = true;

    /**
     * Arm the degradation watchdog on the D-VSync runtime. Also armed
     * automatically whenever a fault plan is installed.
     */
    bool watchdog = false;

    /**
     * Enable frame forensics: a MetricsRegistry sampled every
     * metrics_interval (default: one refresh period) and the forensics
     * dump/flow exports. Off by default — the hot path then pays
     * nothing, and the event interleaving is untouched (the sampler
     * schedules simulator events).
     */
    bool forensics = false;

    /**
     * Metrics sampling cadence; 0 derives 16 refresh periods (the
     * low-overhead default — pass device.period() for dense series).
     */
    Time metrics_interval = 0;

    /**
     * Thermal/DVFS plant on the device GPU (closed-loop thermal work).
     */
    ThermalSpec thermal;

    /**
     * Closed-loop governor walking the graded degradation ladder.
     * Requires thermal.enabled (the plant is its primary sensor); arms
     * the watchdog automatically (the ladder's final rung hands off to
     * it).
     */
    GovernorConfig governor;

    SystemConfig() : device(pixel5()) {}

    // ----- fluent named setters ----------------------------------------
    //
    // Sweep points read as one expression instead of mutate-after-copy
    // blocks:
    //
    //   SystemConfig().with_device(mate60_pro())
    //                 .with_mode(RenderMode::kDvsync)
    //                 .with_buffers(5)

    SystemConfig &with_device(const DeviceConfig &d)
    {
        device = d;
        return *this;
    }
    SystemConfig &with_mode(RenderMode m)
    {
        mode = m;
        return *this;
    }
    SystemConfig &with_buffers(int n)
    {
        buffers = n;
        return *this;
    }
    SystemConfig &with_prerender_limit(int limit)
    {
        prerender_limit = limit;
        return *this;
    }
    SystemConfig &with_seed(std::uint64_t s)
    {
        seed = s;
        return *this;
    }
    SystemConfig &with_vsync_jitter(Time jitter)
    {
        vsync_jitter = jitter;
        return *this;
    }
    SystemConfig &with_dtv_calibration_interval(int edges)
    {
        dtv_calibration_interval = edges;
        return *this;
    }
    SystemConfig &with_latch_lead(Time lead)
    {
        latch_lead = lead;
        return *this;
    }
    SystemConfig &with_offsets(Time app, Time rs)
    {
        vsync_app_offset = app;
        vsync_rs_offset = rs;
        return *this;
    }
    SystemConfig &with_predictor_overhead(Time cost)
    {
        predictor_overhead = cost;
        return *this;
    }
    SystemConfig &with_pacing(const SwapIntervalConfig &p)
    {
        pacing = p;
        return *this;
    }
    SystemConfig &with_faults(std::shared_ptr<const FaultPlan> plan)
    {
        faults = std::move(plan);
        return *this;
    }
    SystemConfig &with_monitor_invariants(bool on)
    {
        monitor_invariants = on;
        return *this;
    }
    SystemConfig &with_watchdog(bool on)
    {
        watchdog = on;
        return *this;
    }
    SystemConfig &with_forensics(bool on)
    {
        forensics = on;
        return *this;
    }
    SystemConfig &with_metrics_interval(Time interval)
    {
        metrics_interval = interval;
        return *this;
    }
    SystemConfig &with_thermal(ThermalSpec t)
    {
        thermal = std::move(t);
        return *this;
    }
    /** Enable the plant with the device envelope at @p envelope_scale. */
    SystemConfig &with_thermal_envelope(double envelope_scale)
    {
        thermal.enabled = true;
        thermal.envelope_scale = envelope_scale;
        return *this;
    }
    SystemConfig &with_governor(const GovernorConfig &g)
    {
        governor = g;
        return *this;
    }
};

/**
 * The assembled stack. Construct, optionally customize (register IPL
 * predictors via runtime()), then run().
 */
class RenderSystem
{
  public:
    RenderSystem(const SystemConfig &config, Scenario scenario);
    ~RenderSystem();

    RenderSystem(const RenderSystem &) = delete;
    RenderSystem &operator=(const RenderSystem &) = delete;

    /**
     * Run the scenario to completion (plus a drain margin so in-flight
     * frames present) and return the unified result.
     */
    RunReport run();

    /**
     * The unified result of the finished run. Valid only after run();
     * components stay accessible for callers that need raw logs.
     */
    RunReport report() const;

    // ----- component access -------------------------------------------

    Simulator &sim() { return sim_; }
    const SystemConfig &config() const { return config_; }
    BufferQueue &queue() { return *queue_; }
    Panel &panel() { return *panel_; }
    HwVsyncGenerator &hw_vsync() { return *hw_; }
    VsyncDistributor &distributor() { return *dist_; }
    Producer &producer() { return *producer_; }
    Compositor &compositor() { return *compositor_; }
    FrameStats &stats() { return *stats_; }

    /** D-VSync components; null under the VSync baseline. */
    DvsyncRuntime *runtime() { return runtime_.get(); }
    DisplayTimeVirtualizer *dtv() { return dtv_.get(); }
    FramePreExecutor *fpe() { return fpe_.get(); }

    /** The swap-interval pacer; null unless mode == kPaced. */
    SwapIntervalPacer *pacer() { return swap_pacer_.get(); }

    /** Invariant monitor; null when monitor_invariants is off. */
    InvariantMonitor *monitor() { return monitor_.get(); }
    const InvariantMonitor *monitor() const { return monitor_.get(); }

    /** Fault injector; null unless a plan was installed. */
    FaultInjector *fault_injector() { return injector_.get(); }

    /** Drop root-cause classifier (always on; costs only per drop). */
    const DropClassifier &classifier() const { return *classifier_; }

    /** Metrics registry; null unless forensics or the governor is on. */
    MetricsRegistry *metrics() { return metrics_.get(); }
    const MetricsRegistry *metrics() const { return metrics_.get(); }

    /** Thermal/DVFS plant; null unless config.thermal.enabled. */
    ThermalPlant *plant() { return plant_.get(); }
    const ThermalPlant *plant() const { return plant_.get(); }

    /** Governor; null unless config.governor.enabled. */
    Governor *governor() { return governor_.get(); }
    const Governor *governor() const { return governor_.get(); }

    /** Activity summary for the power model. */
    RunActivity activity() const;

    /** Effective queue capacity of the run. */
    int buffers() const { return buffers_; }

    /** Effective pre-render limit (D-VSync; 0 under VSync). */
    int prerender_limit() const;

    /**
     * Export the finished run as Chrome trace events (UI/render stage
     * durations, queue waits, presents, and frame drops) — loadable in
     * chrome://tracing or the Perfetto UI.
     */
    void export_trace(TraceLog &log) const;

    /**
     * Build the per-frame causal chains of the finished run (span
     * records + attributed drops); pure post-run derivation.
     */
    FrameForensics forensics() const;

    /**
     * Write the forensics dump (chains, drops with causes, metric time
     * series when forensics is on) as JSON to @p path.
     */
    bool save_forensics(const std::string &path) const;

  private:
    SystemConfig config_;
    int buffers_;
    Time horizon_ = 0; ///< run() ends here: scenario end + drain margin
    Simulator sim_;
    std::unique_ptr<BufferQueue> queue_;
    std::unique_ptr<HwVsyncGenerator> hw_;
    std::unique_ptr<Panel> panel_;
    std::unique_ptr<Compositor> compositor_;
    std::unique_ptr<VsyncDistributor> dist_;
    std::unique_ptr<Producer> producer_;
    std::unique_ptr<FramePacer> vsync_pacer_;
    std::unique_ptr<SwapIntervalPacer> swap_pacer_;
    std::unique_ptr<DvsyncRuntime> runtime_;
    std::unique_ptr<DisplayTimeVirtualizer> dtv_;
    std::unique_ptr<FramePreExecutor> fpe_;
    std::unique_ptr<FrameStats> stats_;
    std::unique_ptr<DropClassifier> classifier_;
    std::unique_ptr<InvariantMonitor> monitor_;
    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<MetricsRegistry> metrics_;
    std::unique_ptr<ThermalPlant> plant_;
    std::unique_ptr<Governor> governor_;
    bool ran_ = false;
};

/**
 * One-call entry point: run @p scenario under @p config and return the
 * unified report.
 */
RunReport run_experiment(const SystemConfig &config,
                         const Scenario &scenario);

} // namespace dvs

#endif // DVS_CORE_RENDER_SYSTEM_H
