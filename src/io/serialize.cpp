#include "io/serialize.h"

namespace th {

namespace {

/** Histogram bucket-count sanity bound for decode. */
constexpr std::uint32_t kMaxBuckets = 1u << 16;

// encodeStat/decodeStat: one statistic of the core/activity.h lists.
void
encodeStat(Encoder &enc, const Counter &c)
{
    enc.u64(c.value());
}

void
encodeStat(Encoder &enc, const Histogram &h)
{
    encodeHistogram(enc, h);
}

bool
decodeStat(Decoder &dec, Counter &c)
{
    c.set(dec.u64());
    return dec.ok();
}

bool
decodeStat(Decoder &dec, Histogram &h)
{
    return decodeHistogram(dec, h);
}

} // namespace

void
encodeHistogram(Encoder &enc, const Histogram &h)
{
    enc.f64(h.lo());
    enc.f64(h.hi());
    enc.u32(static_cast<std::uint32_t>(h.buckets().size()));
    enc.u64(h.count());
    enc.f64(h.sum());
    enc.f64(h.min());
    enc.f64(h.max());
    for (std::uint64_t b : h.buckets())
        enc.u64(b);
}

bool
decodeHistogram(Decoder &dec, Histogram &h)
{
    const double lo = dec.f64();
    const double hi = dec.f64();
    const std::uint32_t nbuckets = dec.u32();
    const std::uint64_t count = dec.u64();
    const double sum = dec.f64();
    const double min = dec.f64();
    const double max = dec.f64();
    if (!dec.ok() || nbuckets == 0 || nbuckets > kMaxBuckets)
        return false;
    std::vector<std::uint64_t> buckets(nbuckets);
    for (std::uint32_t i = 0; i < nbuckets; ++i)
        buckets[i] = dec.u64();
    if (!dec.ok())
        return false;
    return h.restore(lo, hi, std::move(buckets), count, sum, min, max);
}

// flatten: every CoreResult load runs these; inlining the list and
// its lambda into each keeps them straight-line code.
[[gnu::flatten]] void
encodePerfStats(Encoder &enc, const PerfStats &perf)
{
    forEachPerfStat(
        [&enc](const char *, const auto &s) { encodeStat(enc, s); },
        perf);
}

[[gnu::flatten]] bool
decodePerfStats(Decoder &dec, PerfStats &perf)
{
    bool ok = true;
    forEachPerfStat(
        [&](const char *, auto &s) { ok &= decodeStat(dec, s); }, perf);
    return ok;
}

[[gnu::flatten]] void
encodeActivityStats(Encoder &enc, const ActivityStats &act)
{
    forEachActivityStat(
        [&enc](const char *, const Counter &c) { encodeStat(enc, c); },
        act);
}

[[gnu::flatten]] bool
decodeActivityStats(Decoder &dec, ActivityStats &act)
{
    forEachActivityStat(
        [&dec](const char *, Counter &c) { decodeStat(dec, c); }, act);
    return dec.ok();
}

void
encodeCoreResult(Encoder &enc, const CoreResult &result)
{
    encodePerfStats(enc, result.perf);
    encodeActivityStats(enc, result.activity);
    enc.f64(result.freqGhz);
}

bool
decodeCoreResult(Decoder &dec, CoreResult &result)
{
    if (!decodePerfStats(dec, result.perf))
        return false;
    if (!decodeActivityStats(dec, result.activity))
        return false;
    result.freqGhz = dec.f64();
    return dec.ok();
}

std::vector<std::uint8_t>
serializeCoreResult(const CoreResult &result)
{
    Encoder enc;
    encodeCoreResult(enc, result);
    return enc.data();
}

void
encodeDtmReport(Encoder &enc, const DtmReport &rep)
{
    enc.str(rep.benchmark);
    enc.str(rep.config);
    enc.str(rep.policy);
    enc.f64(rep.triggerK);
    enc.f64(rep.freqGhz);
    enc.f64(rep.startPeakK);
    enc.f64(rep.peakK);
    enc.f64(rep.finalPeakK);
    enc.f64(rep.totalTimeS);
    enc.f64(rep.timeAboveTriggerS);
    enc.f64(rep.throttleDuty);
    enc.f64(rep.perfLost);
    enc.f64(rep.ipcFree);
    enc.f64(rep.ipcEffective);
    enc.u64(rep.wallCycles);
    enc.u64(rep.committed);
    enc.u32(static_cast<std::uint32_t>(rep.intervals.size()));
    for (const DtmIntervalSample &s : rep.intervals) {
        enc.f64(s.timeS);
        enc.f64(s.peakK);
        enc.f64(s.clockDuty);
        enc.u32(static_cast<std::uint32_t>(s.fetchOn));
        enc.u32(static_cast<std::uint32_t>(s.fetchPeriod));
        enc.u64(s.cycles);
        enc.u64(s.committed);
        enc.f64(s.powerW);
        enc.u8(s.throttled ? 1 : 0);
    }
}

bool
decodeDtmReport(Decoder &dec, DtmReport &rep)
{
    rep.benchmark = dec.str();
    rep.config = dec.str();
    rep.policy = dec.str();
    rep.triggerK = dec.f64();
    rep.freqGhz = dec.f64();
    rep.startPeakK = dec.f64();
    rep.peakK = dec.f64();
    rep.finalPeakK = dec.f64();
    rep.totalTimeS = dec.f64();
    rep.timeAboveTriggerS = dec.f64();
    rep.throttleDuty = dec.f64();
    rep.perfLost = dec.f64();
    rep.ipcFree = dec.f64();
    rep.ipcEffective = dec.f64();
    rep.wallCycles = dec.u64();
    rep.committed = dec.u64();
    const std::uint32_t n = dec.u32();
    // An interval sample is >= 57 payload bytes, so a sane count can
    // never exceed the remaining payload; this rejects corrupt counts
    // before the resize instead of allocating gigabytes.
    if (!dec.ok() || n > dec.remaining())
        return false;
    rep.intervals.assign(n, DtmIntervalSample{});
    for (std::uint32_t i = 0; i < n; ++i) {
        DtmIntervalSample &s = rep.intervals[i];
        s.timeS = dec.f64();
        s.peakK = dec.f64();
        s.clockDuty = dec.f64();
        s.fetchOn = static_cast<int>(dec.u32());
        s.fetchPeriod = static_cast<int>(dec.u32());
        s.cycles = dec.u64();
        s.committed = dec.u64();
        s.powerW = dec.f64();
        s.throttled = dec.u8() != 0;
    }
    return dec.ok();
}

std::vector<std::uint8_t>
serializeDtmReport(const DtmReport &rep)
{
    Encoder enc;
    encodeDtmReport(enc, rep);
    return enc.data();
}

namespace {

/** Encode one fetch-throttle response table (model- or phase-level). */
void
encodeThrottleTable(Encoder &enc,
                    const std::vector<IntervalThrottlePoint> &table)
{
    enc.u32(static_cast<std::uint32_t>(table.size()));
    for (const IntervalThrottlePoint &p : table) {
        enc.f64(p.duty);
        enc.f64(p.ipcScale);
    }
}

/** Decode counterpart of encodeThrottleTable(). */
bool
decodeThrottleTable(Decoder &dec,
                    std::vector<IntervalThrottlePoint> &table)
{
    const std::uint32_t nt = dec.u32();
    if (!dec.ok() || nt > dec.remaining())
        return false;
    table.assign(nt, IntervalThrottlePoint{});
    for (std::uint32_t i = 0; i < nt; ++i) {
        table[i].duty = dec.f64();
        table[i].ipcScale = dec.f64();
    }
    return dec.ok();
}

} // namespace

void
encodeIntervalModel(Encoder &enc, const IntervalModel &m)
{
    enc.str(m.benchmark);
    enc.u64(m.familyHash);
    enc.u64(m.fitConfigHash);
    enc.f64(m.fitFreqGhz);
    enc.u32(static_cast<std::uint32_t>(m.fitFetchWidth));
    enc.u32(static_cast<std::uint32_t>(m.fitIssueWidth));
    enc.u32(static_cast<std::uint32_t>(m.fitCommitWidth));
    enc.u64(m.intervalCycles);
    enc.u64(m.totalCycles);
    enc.u64(m.totalInstructions);
    enc.u32(static_cast<std::uint32_t>(m.phases.size()));
    for (const IntervalPhase &p : m.phases) {
        enc.u64(p.cycles);
        encodeCoreResult(enc, p.stats);
        encodeThrottleTable(enc, p.throttle);
        enc.u32(static_cast<std::uint32_t>(p.bins.size()));
        for (const IntervalThrottleBin &b : p.bins) {
            enc.f64(b.duty);
            encodeCoreResult(enc, b.stats);
        }
    }
    enc.u32(static_cast<std::uint32_t>(m.ticks.size()));
    for (const IntervalTick &t : m.ticks) {
        enc.u64(t.cycles);
        enc.u64(t.insts);
        enc.u32(t.phase);
    }
    encodeThrottleTable(enc, m.throttle);
}

bool
decodeIntervalModel(Decoder &dec, IntervalModel &m)
{
    m.benchmark = dec.str();
    m.familyHash = dec.u64();
    m.fitConfigHash = dec.u64();
    m.fitFreqGhz = dec.f64();
    m.fitFetchWidth = static_cast<int>(dec.u32());
    m.fitIssueWidth = static_cast<int>(dec.u32());
    m.fitCommitWidth = static_cast<int>(dec.u32());
    m.intervalCycles = dec.u64();
    m.totalCycles = dec.u64();
    m.totalInstructions = dec.u64();
    const std::uint32_t n = dec.u32();
    // A phase is hundreds of payload bytes, so a sane count can never
    // exceed the remaining payload; this rejects corrupt counts before
    // the assign instead of allocating gigabytes.
    if (!dec.ok() || n > dec.remaining())
        return false;
    m.phases.assign(n, IntervalPhase{});
    for (std::uint32_t i = 0; i < n; ++i) {
        m.phases[i].cycles = dec.u64();
        if (!decodeCoreResult(dec, m.phases[i].stats))
            return false;
        if (!decodeThrottleTable(dec, m.phases[i].throttle))
            return false;
        const std::uint32_t nb = dec.u32();
        if (!dec.ok() || nb > dec.remaining())
            return false;
        m.phases[i].bins.assign(nb, IntervalThrottleBin{});
        for (std::uint32_t b = 0; b < nb; ++b) {
            m.phases[i].bins[b].duty = dec.f64();
            if (!decodeCoreResult(dec, m.phases[i].bins[b].stats))
                return false;
        }
    }
    const std::uint32_t nticks = dec.u32();
    if (!dec.ok() || nticks > dec.remaining())
        return false;
    m.ticks.assign(nticks, IntervalTick{});
    for (std::uint32_t i = 0; i < nticks; ++i) {
        m.ticks[i].cycles = dec.u64();
        m.ticks[i].insts = dec.u64();
        m.ticks[i].phase = dec.u32();
    }
    return decodeThrottleTable(dec, m.throttle);
}

std::vector<std::uint8_t>
serializeIntervalModel(const IntervalModel &m)
{
    Encoder enc;
    encodeIntervalModel(enc, m);
    return enc.data();
}

void
encodeMulticoreReport(Encoder &enc, const MulticoreReport &rep)
{
    enc.str(rep.config);
    enc.str(rep.policy);
    enc.f64(rep.triggerK);
    enc.f64(rep.freqGhz);
    enc.u32(rep.numCores);
    enc.u32(rep.l2Banks);
    enc.u32(rep.intervals);
    enc.f64(rep.startPeakK);
    enc.f64(rep.peakK);
    enc.f64(rep.finalPeakK);
    enc.f64(rep.totalTimeS);
    enc.f64(rep.timeAboveTriggerS);
    enc.f64(rep.throughputIpc);
    enc.u32(static_cast<std::uint32_t>(rep.cores.size()));
    for (const MulticoreCoreStats &c : rep.cores) {
        enc.str(c.benchmark);
        enc.f64(c.ipcFree);
        enc.f64(c.ipcEffective);
        enc.f64(c.throttleDuty);
        enc.f64(c.perfLost);
        enc.f64(c.startPeakK);
        enc.f64(c.peakK);
        enc.f64(c.finalPeakK);
        enc.u64(c.wallCycles);
        enc.u64(c.committed);
        enc.u64(c.l2Accesses);
        enc.f64(c.extraMissCycles);
        enc.f64(c.contentionStallFrac);
        enc.f64(c.timeAboveTriggerS);
    }
    enc.u32(static_cast<std::uint32_t>(rep.banks.size()));
    for (const MulticoreBankStats &b : rep.banks) {
        enc.u64(b.accesses);
        enc.f64(b.occupancy);
        enc.f64(b.peakOccupancy);
    }
}

bool
decodeMulticoreReport(Decoder &dec, MulticoreReport &rep)
{
    rep.config = dec.str();
    rep.policy = dec.str();
    rep.triggerK = dec.f64();
    rep.freqGhz = dec.f64();
    rep.numCores = dec.u32();
    rep.l2Banks = dec.u32();
    rep.intervals = dec.u32();
    rep.startPeakK = dec.f64();
    rep.peakK = dec.f64();
    rep.finalPeakK = dec.f64();
    rep.totalTimeS = dec.f64();
    rep.timeAboveTriggerS = dec.f64();
    rep.throughputIpc = dec.f64();
    const std::uint32_t nc = dec.u32();
    // A per-core row is >= 112 payload bytes, so a sane count can
    // never exceed the remaining payload; this rejects corrupt counts
    // before the assign instead of allocating gigabytes.
    if (!dec.ok() || nc > dec.remaining())
        return false;
    rep.cores.assign(nc, MulticoreCoreStats{});
    for (std::uint32_t i = 0; i < nc; ++i) {
        MulticoreCoreStats &c = rep.cores[i];
        c.benchmark = dec.str();
        c.ipcFree = dec.f64();
        c.ipcEffective = dec.f64();
        c.throttleDuty = dec.f64();
        c.perfLost = dec.f64();
        c.startPeakK = dec.f64();
        c.peakK = dec.f64();
        c.finalPeakK = dec.f64();
        c.wallCycles = dec.u64();
        c.committed = dec.u64();
        c.l2Accesses = dec.u64();
        c.extraMissCycles = dec.f64();
        c.contentionStallFrac = dec.f64();
        c.timeAboveTriggerS = dec.f64();
    }
    const std::uint32_t nb = dec.u32();
    if (!dec.ok() || nb > dec.remaining())
        return false;
    rep.banks.assign(nb, MulticoreBankStats{});
    for (std::uint32_t i = 0; i < nb; ++i) {
        MulticoreBankStats &b = rep.banks[i];
        b.accesses = dec.u64();
        b.occupancy = dec.f64();
        b.peakOccupancy = dec.f64();
    }
    return dec.ok();
}

std::vector<std::uint8_t>
serializeMulticoreReport(const MulticoreReport &rep)
{
    Encoder enc;
    encodeMulticoreReport(enc, rep);
    return enc.data();
}

const char *
simRequestKindName(SimRequestKind k)
{
    switch (k) {
    case SimRequestKind::Ping:    return "ping";
    case SimRequestKind::Fig8:    return "fig8";
    case SimRequestKind::Fig9:    return "fig9";
    case SimRequestKind::Fig10:   return "fig10";
    case SimRequestKind::Width:   return "width";
    case SimRequestKind::Dtm:     return "dtm";
    case SimRequestKind::Core:    return "core";
    case SimRequestKind::Metrics: return "metrics";
    case SimRequestKind::Multicore: return "multicore";
    }
    return "unknown";
}

const char *
simStatusName(SimStatus s)
{
    switch (s) {
    case SimStatus::Ok:               return "ok";
    case SimStatus::BadRequest:       return "bad-request";
    case SimStatus::Overloaded:       return "overloaded";
    case SimStatus::DeadlineExceeded: return "deadline-exceeded";
    case SimStatus::ShuttingDown:     return "shutting-down";
    case SimStatus::Internal:         return "internal";
    case SimStatus::Unavailable:      return "unavailable";
    }
    return "unknown";
}

void
encodeSimRequest(Encoder &enc, const SimRequest &req)
{
    enc.u8(static_cast<std::uint8_t>(req.kind));
    enc.u32(static_cast<std::uint32_t>(req.benchmarks.size()));
    for (const std::string &b : req.benchmarks)
        enc.str(b);
    enc.str(req.config);
    enc.u64(req.insts);
    enc.u64(req.warmup);
    enc.u32(req.deadlineMs);
    enc.str(req.dtmPolicy);
    enc.f64(req.dtmTriggerK);
    enc.u32(req.dtmIntervals);
    enc.u64(req.dtmIntervalCycles);
    enc.f64(req.dtmDilation);
    enc.u32(req.dtmGridN);
    enc.str(req.dtmSolver);
    enc.u8(req.fastPath);
    enc.u32(req.mcCores);
    enc.u32(req.mcL2Banks);
}

bool
decodeSimRequest(Decoder &dec, SimRequest &req)
{
    const std::uint8_t kind = dec.u8();
    if (kind > static_cast<std::uint8_t>(SimRequestKind::Multicore))
        return false;
    req.kind = static_cast<SimRequestKind>(kind);
    const std::uint32_t n = dec.u32();
    // Every benchmark name costs >= 4 payload bytes (its length
    // prefix), so a sane count can never exceed the remaining bytes;
    // this rejects corrupt counts before the reserve.
    if (!dec.ok() || n > dec.remaining())
        return false;
    req.benchmarks.clear();
    req.benchmarks.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
        req.benchmarks.push_back(dec.str());
    req.config = dec.str();
    req.insts = dec.u64();
    req.warmup = dec.u64();
    req.deadlineMs = dec.u32();
    req.dtmPolicy = dec.str();
    req.dtmTriggerK = dec.f64();
    req.dtmIntervals = dec.u32();
    req.dtmIntervalCycles = dec.u64();
    req.dtmDilation = dec.f64();
    req.dtmGridN = dec.u32();
    req.dtmSolver = dec.str();
    req.fastPath = dec.u8();
    req.mcCores = dec.u32();
    req.mcL2Banks = dec.u32();
    return dec.ok();
}

void
encodeSimResponse(Encoder &enc, const SimResponse &rsp)
{
    enc.u8(static_cast<std::uint8_t>(rsp.status));
    enc.str(rsp.error);
    enc.str(rsp.text);
}

bool
decodeSimResponse(Decoder &dec, SimResponse &rsp)
{
    const std::uint8_t status = dec.u8();
    if (status > static_cast<std::uint8_t>(SimStatus::Unavailable))
        return false;
    rsp.status = static_cast<SimStatus>(status);
    rsp.error = dec.str();
    rsp.text = dec.str();
    return dec.ok();
}

std::vector<std::uint8_t>
flightKeyOf(const SimRequest &req)
{
    SimRequest canon = req;
    canon.deadlineMs = 0;
    Encoder enc;
    encodeSimRequest(enc, canon);
    return enc.data();
}

} // namespace th
