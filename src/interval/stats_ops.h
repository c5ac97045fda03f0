/**
 * @file
 * Counter-zip helper shared by the interval fitter and replay engine:
 * applies one operation to every corresponding Counter pair of two
 * CoreResults (the value-width histogram is handled separately by
 * both callers). It walks the same lists as the store codec
 * (core/activity.h), so a counter the codec persists is never dropped
 * from a fitted model.
 */

#ifndef TH_INTERVAL_STATS_OPS_H
#define TH_INTERVAL_STATS_OPS_H

#include <type_traits>

#include "core/pipeline.h"

namespace th {

/** Call fn(into_counter, from_counter) for every CoreResult counter. */
template <class Fn>
void
zipCoreCounters(CoreResult &into, const CoreResult &from, Fn &&fn)
{
    const auto counters = [&fn](const char *, auto &a, const auto &b) {
        if constexpr (std::is_same_v<std::decay_t<decltype(a)>, Counter>)
            fn(a, b);
    };
    forEachPerfStat(counters, into.perf, from.perf);
    forEachActivityStat(counters, into.activity, from.activity);
}

} // namespace th

#endif // TH_INTERVAL_STATS_OPS_H
