/**
 * @file
 * Top-level simulation context.
 *
 * A Simulator bundles the event queue (which owns the virtual clock) and
 * the root random stream. Every simulated entity receives a reference to
 * the Simulator and schedules its behaviour through it.
 */

#ifndef DVS_SIM_SIMULATOR_H
#define DVS_SIM_SIMULATOR_H

#include <cstdint>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/time.h"

namespace dvs {

/**
 * Simulation context: virtual clock, event queue, and root RNG.
 *
 * The simulator is deterministic: given the same seed and the same set of
 * attached entities, every run produces identical event sequences.
 * Campaigns parallelise across independent sessions (ExperimentRunner),
 * never inside one (see DESIGN.md §5g).
 */
class Simulator
{
  public:
    explicit Simulator(std::uint64_t seed = 1);

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current virtual time. */
    Time now() const { return events_.now(); }

    /** The event queue used to schedule all behaviour. */
    EventQueue &events() { return events_; }

    /** Root random stream. Entities should fork() their own sub-streams. */
    Rng &rng() { return rng_; }

    /** Run until no events remain before @p horizon. */
    void run_until(Time horizon) { events_.run_until(horizon); }

    /** Run all pending events to exhaustion. */
    void run() { events_.run(); }

  private:
    EventQueue events_;
    Rng rng_;
};

} // namespace dvs

#endif // DVS_SIM_SIMULATOR_H
