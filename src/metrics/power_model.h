/**
 * @file
 * Power, CPU-instruction, and thermal/DVFS model (§6.4 / §6.7 +
 * ROADMAP item 3).
 *
 * Two layers live here:
 *
 *  - PowerModel: the paper's first-order post-run energy accountant — a
 *    static floor (display + rails) plus dynamic energy proportional to
 *    pipeline busy time, with D-VSync's fixed per-frame bookkeeping cost
 *    (102.6 µs, §6.4) and ZDP's fitting cost on predicted frames.
 *
 *  - ThermalPlant: a *live* closed-loop plant in the spirit of Anglada
 *    et al.'s Dynamic Sampling Rate (PAPERS.md): the GPU runs on a DVFS
 *    clock ladder, per-frame GPU cost scales with inter-frame coherence
 *    and the clock in force, dissipated power feeds a deterministic RC
 *    thermal integrator over *simulated* time, and crossing the throttle
 *    temperature steps the clock down — thermal throttle becomes an
 *    emergent state the simulation produces, not just an injected fault.
 *    The Governor (src/governor/) additionally caps the ladder from
 *    above as one of its degradation rungs.
 *
 * The plant is pure double arithmetic over integer nanoseconds: no RNG,
 * no events, no wall clock. Feeding it the same busy schedule yields
 * bit-identical temperatures and energies, which is what lets a
 * governor-enabled run replay byte-identically.
 */

#ifndef DVS_METRICS_POWER_MODEL_H
#define DVS_METRICS_POWER_MODEL_H

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace dvs {

/** Model constants (defaults target a Pixel-5-class SoC). */
struct PowerParams {
    /** Static device power while the screen is on (mW). */
    double base_mw = 1450.0;

    /** Dynamic power of the big/middle cores while rendering (mW). */
    double active_mw = 900.0;

    /**
     * Power of the little-core cluster while the D-VSync threads run
     * (mW). VSync/D-VSync threads live on little cores so they do not
     * compete with the UI/render threads (§6.4).
     */
    double little_mw = 550.0;

    /** FPE + DTV execution time per frame (§6.4: 102.6 µs). */
    Time dvsync_overhead_per_frame = 102'600;

    /** Render-service instructions per frame, VSync baseline (§6.7). */
    double instr_per_frame_base = 10.793e6;

    /** Render-service instructions per frame with D-VSync on (§6.7). */
    double instr_per_frame_dvsync = 10.849e6;
};

/** Inputs describing a finished run. */
struct RunActivity {
    Time wall_time = 0;        ///< run duration
    Time pipeline_busy = 0;    ///< UI + render thread busy time
    std::uint64_t frames_produced = 0;
    bool dvsync_on = false;
    /** Frames that additionally ran an input predictor (ZDP). */
    std::uint64_t predicted_frames = 0;
    /** Predictor execution time per predicted frame (§6.5: 151.6 µs). */
    Time predictor_overhead = 151'600;
    /**
     * GPU dynamic energy accounted by the ThermalPlant (mJ); 0 when the
     * plant is off, which keeps the legacy energy model byte-identical.
     */
    double gpu_mj = 0.0;

    friend bool operator==(const RunActivity &,
                           const RunActivity &) = default;
};

/** First-order energy model. */
class PowerModel
{
  public:
    explicit PowerModel(PowerParams params = {}) : params_(params) {}

    /** Total energy of a run in millijoules. */
    double energy_mj(const RunActivity &a) const;

    /** Energy attributable to D-VSync bookkeeping alone (mJ). */
    double dvsync_overhead_mj(const RunActivity &a) const;

    /** Render-service instructions executed over the run. */
    double instructions(const RunActivity &a) const;

    /**
     * Percentage increase of @p b over @p a in energy. NaN when the
     * baseline energy is <= 0 — a zero baseline is a config bug, and
     * rendering it as "no change" would mask it; campaign roll-ups
     * print NaN as "n/a" (the empty-histogram convention).
     */
    double percent_increase(const RunActivity &a,
                            const RunActivity &b) const;

    const PowerParams &params() const { return params_; }

  private:
    PowerParams params_;
};

// ----- thermal/DVFS plant (closed loop) --------------------------------

/** One operating point of the GPU clock ladder. */
struct DvfsLevel {
    double clock_ghz = 0.0; ///< nominal clock, reporting only
    double speed = 1.0;     ///< relative throughput vs level 0
    double power_mw = 0.0;  ///< dynamic power while busy at this level
};

/** Thermal RC model + DVFS ladder parameters. */
struct ThermalParams {
    /**
     * Clock ladder, fastest first. Level 0 is nominal; the thermal trip
     * and the governor's DVFS rung only ever move *down* the ladder
     * (higher index = slower, cooler).
     */
    std::vector<DvfsLevel> levels = {
        {2.6, 1.00, 2400.0},
        {2.1, 0.84, 1700.0},
        {1.7, 0.68, 1150.0},
        {1.3, 0.52, 760.0},
    };

    double ambient_c = 25.0; ///< heat-sink / skin reference temperature
    double start_c = 30.0;   ///< die temperature at run start

    /** Crossing this trips one clock step down (emergent throttle). */
    double throttle_c = 44.0;

    /** Cooling below this releases one step (hysteresis band). */
    double release_c = 40.0;

    /**
     * Thermal resistance die -> ambient (°C per W): the steady-state
     * temperature under sustained power P is ambient + R * P.
     */
    double resistance_c_per_w = 7.5;

    /** RC time constant of the die/chassis node (simulated ns). */
    Time tau = 400'000'000; // 400 ms

    /**
     * GPU-cost floor for a fully coherent frame (Anglada-style dynamic
     * sampling): a frame whose content barely moved re-renders at this
     * fraction of its nominal cost; incoherent frames pay full price.
     */
    double coherent_scale = 0.35;
};

/**
 * Map a device's §6 thermal envelope (sustained chassis budget in mW and
 * headroom above ambient in °C) to plant parameters: dissipating exactly
 * the budget settles right at the throttle threshold, so an envelope
 * scale < 1 (a constrained chassis: thin phone, hot day) makes the same
 * workload trip the throttle earlier.
 */
ThermalParams thermal_params_for(double budget_mw, double headroom_c,
                                 double envelope_scale = 1.0);

/**
 * Deterministic thermal/DVFS plant. Wire it to the GPU ExecResource:
 * a cost transform applies the clock slowdown to submitted jobs, and a
 * usage listener accounts each busy interval into the RC integrator
 * (advancing idle decay first). The integrator is lazy — it advances
 * only when told, so the plant schedules no simulator events.
 */
class ThermalPlant
{
  public:
    explicit ThermalPlant(ThermalParams params);

    const ThermalParams &params() const { return params_; }

    /** Current ladder index (0 = nominal clock). */
    int level() const { return level_; }
    int level_count() const { return int(params_.levels.size()); }

    /** Nominal-speed / current-speed job-duration multiplier (>= 1). */
    double slowdown() const;

    /** Scale a GPU job duration by the clock in force. */
    Time scale_duration(Time duration) const;

    /**
     * Account a GPU busy interval [start, end) at the current level:
     * idle-decay to start, integrate heating to end, accumulate energy,
     * then trip/release the clock against the hysteresis band.
     */
    void on_busy(Time start, Time end);

    /** Die temperature as of the last accounted interval. */
    double temperature_c() const { return temp_c_; }

    /** Decay-projected temperature at @p now (non-mutating; gauges). */
    double temperature_at(Time now) const;

    /**
     * Governor floor: the slowest level index the governor demands
     * (its DVFS-cap rung). The plant never runs faster than the floor;
     * thermal trips can still push below it.
     */
    void set_governor_floor(int floor);
    int governor_floor() const { return floor_; }

    /** Emergent thermal trips (clock step-downs at the threshold). */
    std::uint64_t throttle_trips() const { return trips_; }

    /** Running slower than the governor floor due to thermal trips? */
    bool throttled() const { return level_ > floor_; }

    /** Peak die temperature seen so far. */
    double peak_temp_c() const { return peak_c_; }

    /** GPU dynamic energy accounted so far (mJ). */
    double gpu_energy_mj() const { return energy_mj_; }

  private:
    /** Integrate toward the steady state of @p power_mw until @p to. */
    void integrate(Time to, double power_mw);

    ThermalParams params_;
    Time last_ = 0;
    double temp_c_;
    double peak_c_;
    int level_ = 0;
    int floor_ = 0;
    std::uint64_t trips_ = 0;
    double energy_mj_ = 0.0;
};

} // namespace dvs

#endif // DVS_METRICS_POWER_MODEL_H
