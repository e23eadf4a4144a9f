#include "sim/simulator.h"

#include <cstdio>

#include "sim/time.h"

namespace dvs {

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

std::string
format_time(Time t)
{
    char buf[48];
    if (t == kTimeNone) {
        std::snprintf(buf, sizeof(buf), "<none>");
    } else if (t < 1000) {
        std::snprintf(buf, sizeof(buf), "%lld ns", (long long)t);
    } else if (t < 1'000'000) {
        std::snprintf(buf, sizeof(buf), "%.3f us", to_us(t));
    } else if (t < 10'000'000'000LL) {
        std::snprintf(buf, sizeof(buf), "%.3f ms", to_ms(t));
    } else {
        std::snprintf(buf, sizeof(buf), "%.3f s", to_seconds(t));
    }
    return buf;
}

} // namespace dvs
