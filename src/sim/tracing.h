/**
 * @file
 * Chrome-trace event logging.
 *
 * Real rendering-system work leans heavily on runtime traces (the paper
 * cites Perfetto; §7 notes that "graphics programmers often rely on
 * runtime traces to locate performance bottlenecks"). This logger
 * records duration, instant, counter, and flow events from a simulation
 * and exports the Chrome trace-event JSON format, loadable in
 * chrome://tracing or the Perfetto UI, with one track per simulated
 * thread. Flow events (ph "s"/"t"/"f") link one frame's spans across
 * tracks so a frame can be followed UI → render → GPU → queue → display.
 */

#ifndef DVS_SIM_TRACING_H
#define DVS_SIM_TRACING_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.h"

namespace dvs {

/**
 * Escape @p s for use inside a JSON string literal (without the quotes).
 * Names and labels come from workload and surface declarations, so any
 * byte can show up in them; quotes, backslashes and control characters
 * must be escaped or the output is not valid JSON (RFC 8259 forbids raw
 * U+0000..U+001F inside strings). Every JSON writer in the project
 * escapes its strings through this one function.
 */
std::string json_escape(const std::string &s);

/**
 * Collects trace events during a run and serializes them as Chrome
 * trace-event JSON.
 */
class TraceLog
{
  public:
    /** Record a complete duration event on a named track. */
    void duration(const std::string &track, const std::string &name,
                  Time start, Time end);

    /** Record an instant event (vertical marker). */
    void instant(const std::string &track, const std::string &name,
                 Time at);

    /** Record a counter sample (e.g. buffer-queue depth). */
    void counter(const std::string &name, Time at, double value);

    // ----- flow events (frame linkage across tracks) -------------------

    /** Start flow @p id on @p track (ph "s"). */
    void flow_begin(const std::string &track, const std::string &name,
                    Time at, std::uint64_t id);

    /** Continue flow @p id through @p track (ph "t"). */
    void flow_step(const std::string &track, const std::string &name,
                   Time at, std::uint64_t id);

    /** Terminate flow @p id on @p track (ph "f", binds enclosing). */
    void flow_end(const std::string &track, const std::string &name,
                  Time at, std::uint64_t id);

    /**
     * Cap the number of stored events (0 = unbounded, the default).
     * Events recorded past the cap are counted in dropped_events()
     * instead of growing the log — long fleet exports stay bounded.
     */
    void set_event_cap(std::size_t cap) { event_cap_ = cap; }
    std::uint64_t dropped_events() const { return dropped_events_; }

    std::size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }
    void clear();

    /** Serialize as Chrome trace-event JSON (an array of event objects). */
    std::string to_json() const;

    /**
     * Write the JSON to @p path. @return success; failures warn() with
     * the OS error so a silently unwritable path is diagnosable.
     */
    bool save(const std::string &path) const;

  private:
    struct Event {
        char phase; // 'X' duration, 'i' instant, 'C' counter,
                    // 's'/'t'/'f' flow
        int tid;    // resolved track id (0 for counters)
        std::string name;
        Time start;
        Time duration;
        double value;       // counter value
        std::uint64_t id;   // flow id
    };

    bool admit();
    int track_id(const std::string &track);

    std::vector<Event> events_;
    std::vector<std::string> tracks_;
    std::unordered_map<std::string, int> track_ids_;
    std::size_t event_cap_ = 0;
    std::uint64_t dropped_events_ = 0;
};

} // namespace dvs

#endif // DVS_SIM_TRACING_H
