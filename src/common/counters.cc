#include "counters.h"

#include <map>
#include <mutex>

namespace carbonx
{

namespace
{

struct CounterStore
{
    std::mutex mutex;
    // std::map never invalidates element references on insert.
    std::map<std::string, Counter> counters;
};

CounterStore &
store()
{
    // Leaked so counter references stay valid in static destructors
    // (e.g. batteries flushing counts at program exit).
    static CounterStore *s = new CounterStore();
    return *s;
}

} // namespace

Counter &
counter(const std::string &name)
{
    CounterStore &s = store();
    const std::lock_guard<std::mutex> lock(s.mutex);
    return s.counters[name];
}

std::vector<std::pair<std::string, uint64_t>>
counterSnapshot()
{
    CounterStore &s = store();
    const std::lock_guard<std::mutex> lock(s.mutex);
    std::vector<std::pair<std::string, uint64_t>> out;
    out.reserve(s.counters.size());
    for (const auto &[name, c] : s.counters)
        out.emplace_back(name, c.value());
    return out;
}

void
resetCounters()
{
    CounterStore &s = store();
    const std::lock_guard<std::mutex> lock(s.mutex);
    for (auto &[name, c] : s.counters)
        c.reset();
}

} // namespace carbonx
