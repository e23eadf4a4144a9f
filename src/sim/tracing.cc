#include "sim/tracing.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "sim/logging.h"

namespace dvs {

std::string
json_escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    char buf[8];
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

int
TraceLog::track_id(const std::string &track)
{
    // Hash-map lookup: O(1) per event even on multi-surface exports with
    // dozens of tracks. tracks_ keeps first-use order for the metadata.
    auto [it, inserted] =
        track_ids_.emplace(track, int(tracks_.size()) + 1);
    if (inserted)
        tracks_.push_back(track);
    return it->second;
}

bool
TraceLog::admit()
{
    if (event_cap_ != 0 && events_.size() >= event_cap_) {
        ++dropped_events_;
        return false;
    }
    return true;
}

void
TraceLog::clear()
{
    events_.clear();
    tracks_.clear();
    track_ids_.clear();
    dropped_events_ = 0;
}

void
TraceLog::duration(const std::string &track, const std::string &name,
                   Time start, Time end)
{
    if (!admit())
        return;
    events_.push_back(
        Event{'X', track_id(track), name, start, end - start, 0.0, 0});
}

void
TraceLog::instant(const std::string &track, const std::string &name,
                  Time at)
{
    if (!admit())
        return;
    events_.push_back(Event{'i', track_id(track), name, at, 0, 0.0, 0});
}

void
TraceLog::counter(const std::string &name, Time at, double value)
{
    if (!admit())
        return;
    events_.push_back(
        Event{'C', track_id("counters"), name, at, 0, value, 0});
}

void
TraceLog::flow_begin(const std::string &track, const std::string &name,
                     Time at, std::uint64_t id)
{
    if (!admit())
        return;
    events_.push_back(Event{'s', track_id(track), name, at, 0, 0.0, id});
}

void
TraceLog::flow_step(const std::string &track, const std::string &name,
                    Time at, std::uint64_t id)
{
    if (!admit())
        return;
    events_.push_back(Event{'t', track_id(track), name, at, 0, 0.0, id});
}

void
TraceLog::flow_end(const std::string &track, const std::string &name,
                   Time at, std::uint64_t id)
{
    if (!admit())
        return;
    events_.push_back(Event{'f', track_id(track), name, at, 0, 0.0, id});
}

std::string
TraceLog::to_json() const
{
    // Chrome trace format: timestamps in microseconds, pid/tid tracks.
    std::string out = "[\n";
    char buf[512];
    // Thread-name metadata so tracks render with their labels.
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
                      "\"name\":\"thread_name\",\"args\":{\"name\":"
                      "\"%s\"}},\n",
                      i + 1, json_escape(tracks_[i]).c_str());
        out += buf;
    }

    for (std::size_t i = 0; i < events_.size(); ++i) {
        const Event &e = events_[i];
        const double ts = to_us(e.start);
        switch (e.phase) {
          case 'X':
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                          "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f}",
                          e.tid, json_escape(e.name).c_str(), ts,
                          to_us(e.duration));
            break;
          case 'i':
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"i\",\"pid\":1,\"tid\":%d,"
                          "\"name\":\"%s\",\"ts\":%.3f,\"s\":\"t\"}",
                          e.tid, json_escape(e.name).c_str(), ts);
            break;
          case 'C':
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"C\",\"pid\":1,\"name\":\"%s\","
                          "\"ts\":%.3f,\"args\":{\"value\":%g}}",
                          json_escape(e.name).c_str(), ts, e.value);
            break;
          case 's':
          case 't':
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"%c\",\"pid\":1,\"tid\":%d,"
                          "\"name\":\"%s\",\"cat\":\"frame\","
                          "\"id\":%llu,\"ts\":%.3f}",
                          e.phase, e.tid, json_escape(e.name).c_str(),
                          (unsigned long long)e.id, ts);
            break;
          case 'f':
            // bp:"e" binds the arrow to the enclosing slice.
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"f\",\"pid\":1,\"tid\":%d,"
                          "\"name\":\"%s\",\"cat\":\"frame\","
                          "\"id\":%llu,\"bp\":\"e\",\"ts\":%.3f}",
                          e.tid, json_escape(e.name).c_str(),
                          (unsigned long long)e.id, ts);
            break;
        }
        out += buf;
        if (i + 1 < events_.size())
            out += ',';
        out += '\n';
    }
    out += "]\n";
    return out;
}

bool
TraceLog::save(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        warn("TraceLog::save: cannot open %s for writing: %s",
             path.c_str(), std::strerror(errno));
        return false;
    }
    out << to_json();
    if (!out) {
        warn("TraceLog::save: write to %s failed: %s", path.c_str(),
             std::strerror(errno));
        return false;
    }
    return true;
}

} // namespace dvs
