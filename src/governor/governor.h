/**
 * @file
 * Closed-loop thermal/energy governor with a graded degradation ladder.
 *
 * The paper measures D-VSync's power cost open-loop (§6.7); the governor
 * closes the loop: pre-rendering spends joules *now* to avoid stutters
 * *later*, and under thermal pressure something must decide when that
 * trade stops being worth it. Rather than the watchdog's all-or-nothing
 * collapse to VSync pacing, the governor walks a graded ladder, one rung
 * per control decision:
 *
 *   rung 0  nominal        — full pre-render depth, native rate, full clock
 *   rung 1  trim-prerender — cap the pre-render queue at depth 1
 *   rung 2  ltpo-cap       — request the panel's lowest LTPO rate
 *   rung 3  dvfs-cap       — floor the GPU ladder at a slower level
 *   rung 4  handoff        — force the PR 3 watchdog's VSync fallback
 *
 * Sensors come from the MetricsRegistry (the PR 5 sensor bus): die
 * temperature, cumulative GPU energy (differentiated into a rate), and
 * the drop counter. Actions are injected as closures (GovernorHooks) so
 * this library depends only on sim + obs, never on the core runtime.
 *
 * No-flap guarantee: a demotion requires `hold_ticks` consecutive ticks
 * at the current rung (per-rung hysteresis), a promotion requires a calm
 * streak of `promote_ticks * backoff` ticks, and every re-demotion
 * within `backoff_window` of the previous one doubles the backoff (up to
 * `backoff_cap`). A workload that keeps re-triggering pressure therefore
 * pays exponentially longer calm streaks before each retry, so the
 * transition count over any horizon T is O(rungs * log(T)) rather than
 * O(T) — the flap-storm test pins this bound.
 *
 * Determinism: the tick runs at kMetrics priority, after every other
 * event of its tick, so the control loop reads settled sensor values
 * and a replay of the same session takes the same decisions.
 */

#ifndef DVS_GOVERNOR_GOVERNOR_H
#define DVS_GOVERNOR_GOVERNOR_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.h"

namespace dvs {

class Simulator;
class MetricsRegistry;

/** Control-loop knobs. */
struct GovernorConfig {
    bool enabled = false;

    /** Control cadence; 0 lets the wiring pick 4 refresh periods. */
    Time control_interval = 0;

    /** Demote while the die is at or above this (°C). */
    double temp_demote_c = 43.0;

    /** Count a tick as calm only at or below this (°C). */
    double temp_promote_c = 39.0;

    /** GPU energy-rate budget (mW); 0 disables the energy sensor. */
    double energy_budget_mw = 0.0;

    /** Consecutive pressured ticks required before each demotion. */
    int hold_ticks = 2;

    /** Calm ticks (scaled by the backoff) required before a promotion. */
    int promote_ticks = 6;

    /** Backoff multiplier cap. */
    int backoff_cap = 8;

    /** Re-demotion within this window doubles the backoff. */
    Time backoff_window = 1'500'000'000; // 1.5 s
};

/**
 * Actuators, injected by the wiring layer (RenderSystem). A null hook
 * turns its rung into a pass-through state: the ladder still walks it,
 * it just does nothing (e.g. ltpo_cap on a fixed-rate panel). A null
 * `handoff` removes rung 4 entirely — the ladder tops out at dvfs-cap.
 */
struct GovernorHooks {
    /** Rung 1: cap (true) / restore (false) the pre-render depth. */
    std::function<void(bool)> trim_prerender;

    /** Rung 2: request lowest LTPO rate (true) / native rate (false). */
    std::function<void(bool)> ltpo_cap;

    /** Rung 3: floor the DVFS ladder (true) / release it (false). */
    std::function<void(bool)> dvfs_cap;

    /** Rung 4 entry: force the watchdog's VSync fallback. */
    std::function<void(Time now)> handoff;

    /** Rung 4 exit gate: has the watchdog re-promoted on its own? */
    std::function<bool()> handoff_cleared;
};

class Governor
{
  public:
    Governor(const GovernorConfig &config, GovernorHooks hooks);

    /**
     * Run the control loop every @p interval on @p sim's clock (first
     * tick at @p interval), reading sensors from @p registry. Must be
     * called at most once; kMetrics priority keeps ticks on settled
     * barrier state.
     */
    void install(Simulator &sim, const MetricsRegistry &registry,
                 Time interval);

    /**
     * One control decision at time @p now. Public so unit tests can
     * drive the ladder against a hand-built registry without a
     * simulator.
     */
    void tick(Time now);

    /** Current ladder rung (0 = nominal). */
    int rung() const { return rung_; }

    /** Highest rung this ladder can reach (4, or 3 without handoff). */
    int max_rung() const { return max_rung_; }

    /** Is any rung engaged (the DropClassifier's governor_capped)? */
    bool capping() const { return rung_ > 0; }

    std::uint64_t demotions() const { return demotions_; }
    std::uint64_t promotions() const { return promotions_; }
    std::uint64_t ticks() const { return ticks_; }

    /** Current re-promotion backoff multiplier (1 = no backoff). */
    int backoff_multiplier() const { return backoff_; }

    /** Timeline lines, "t=<ns> governor demote 0->1 [...] ...". */
    const std::vector<std::string> &transitions() const
    {
        return transitions_;
    }

    const GovernorConfig &config() const { return config_; }

  private:
    struct Sensors {
        double temp_c = 0.0;
        double rate_mw = 0.0;
        double new_drops = 0.0;
        bool have_rate = false;
    };

    Sensors read_sensors(Time now);
    void apply(int rung, bool engage, Time now);
    void demote(Time now, const Sensors &s);
    void promote(Time now, const Sensors &s);
    void record(Time now, const char *verb, int from, int to,
                const Sensors &s);
    static const char *rung_name(int rung);

    GovernorConfig config_;
    GovernorHooks hooks_;
    const MetricsRegistry *registry_ = nullptr;
    bool installed_ = false;
    int max_rung_ = 4;

    int rung_ = 0;
    int pressure_streak_ = 0;
    int calm_streak_ = 0;
    int backoff_ = 1;
    Time last_demote_ = kTimeNone;
    std::uint64_t demotions_ = 0;
    std::uint64_t promotions_ = 0;
    std::uint64_t ticks_ = 0;

    // Previous cumulative sensor values, for differentiation.
    bool have_prev_ = false;
    Time prev_at_ = 0;
    double prev_mj_ = 0.0;
    double prev_drops_ = 0.0;

    std::vector<std::string> transitions_;
};

} // namespace dvs

#endif // DVS_GOVERNOR_GOVERNOR_H
