#include "sim/configs.h"

#include <cstring>

#include "common/log.h"
#include "io/serialize.h"

namespace th {

namespace {

/** FNV-1a accumulator. */
struct Hasher
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void bytes(const void *p, std::size_t len)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < len; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    }
    void add(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void add(int v) { add(static_cast<std::uint64_t>(v)); }
    void add(bool v) { add(static_cast<std::uint64_t>(v)); }
    void add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }
};

} // namespace

const char *
configName(ConfigKind kind)
{
    switch (kind) {
      case ConfigKind::Base:       return "Base";
      case ConfigKind::TH:         return "TH";
      case ConfigKind::Pipe:       return "Pipe";
      case ConfigKind::Fast:       return "Fast";
      case ConfigKind::ThreeD:     return "3D";
      case ConfigKind::ThreeDNoTH: return "3D-noTH";
      default:                     return "Unknown";
    }
}

bool
configKindByName(const std::string &name, ConfigKind &out)
{
    for (ConfigKind k : {ConfigKind::Base, ConfigKind::TH, ConfigKind::Pipe,
                         ConfigKind::Fast, ConfigKind::ThreeD,
                         ConfigKind::ThreeDNoTH}) {
        if (name == configName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

std::vector<ConfigKind>
figure8Configs()
{
    return {ConfigKind::Base, ConfigKind::TH, ConfigKind::Pipe,
            ConfigKind::Fast, ConfigKind::ThreeD};
}

CoreConfig
makeConfig(ConfigKind kind, const BlockLibrary &lib)
{
    CoreConfig cfg;
    cfg.name = configName(kind);
    switch (kind) {
      case ConfigKind::Base:
        cfg.freqGhz = lib.frequency2dGhz();
        break;
      case ConfigKind::TH:
        cfg.freqGhz = lib.frequency2dGhz();
        cfg.thermalHerding = true;
        break;
      case ConfigKind::Pipe:
        cfg.freqGhz = lib.frequency2dGhz();
        cfg.pipeOpts = true;
        break;
      case ConfigKind::Fast:
        cfg.freqGhz = lib.frequency3dGhz();
        break;
      case ConfigKind::ThreeD:
        cfg.freqGhz = lib.frequency3dGhz();
        cfg.thermalHerding = true;
        cfg.pipeOpts = true;
        cfg.stacked = true;
        break;
      case ConfigKind::ThreeDNoTH:
        cfg.freqGhz = lib.frequency3dGhz();
        cfg.pipeOpts = true;
        cfg.stacked = true;
        break;
    }
    return cfg;
}

std::uint64_t
configHash(const CoreConfig &cfg)
{
    Hasher h;
    // The display name is deliberately excluded: it never affects the
    // simulation, and ablation variants share the base name.
    h.add(cfg.fetchWidth);
    h.add(cfg.decodeWidth);
    h.add(cfg.commitWidth);
    h.add(cfg.issueWidth);
    h.add(cfg.ifqSize);
    h.add(cfg.robSize);
    h.add(cfg.rsSize);
    h.add(cfg.lqSize);
    h.add(cfg.sqSize);
    h.add(cfg.numIntAlu);
    h.add(cfg.numIntShift);
    h.add(cfg.numIntMult);
    h.add(cfg.numFpAdd);
    h.add(cfg.numFpMult);
    h.add(cfg.numFpDiv);
    h.add(cfg.numLoadPorts);
    h.add(cfg.numStorePorts);
    h.add(cfg.il1Bytes);
    h.add(cfg.il1Assoc);
    h.add(cfg.il1LineBytes);
    h.add(cfg.dl1Bytes);
    h.add(cfg.dl1Assoc);
    h.add(cfg.dl1LineBytes);
    h.add(cfg.l2Bytes);
    h.add(cfg.l2Assoc);
    h.add(cfg.l2LineBytes);
    h.add(cfg.il1Cycles);
    h.add(cfg.dl1Cycles);
    h.add(cfg.itlbEntries);
    h.add(cfg.itlbAssoc);
    h.add(cfg.dtlbEntries);
    h.add(cfg.dtlbAssoc);
    h.add(cfg.tlbMissCycles);
    h.add(cfg.bimodalEntries);
    h.add(cfg.localHistEntries);
    h.add(cfg.localHistBits);
    h.add(cfg.localCounterEntries);
    h.add(cfg.globalHistBits);
    h.add(cfg.chooserEntries);
    h.add(cfg.btbEntries);
    h.add(cfg.btbAssoc);
    h.add(cfg.ibtbEntries);
    h.add(cfg.ibtbAssoc);
    h.add(cfg.freqGhz);
    h.add(cfg.memLatencyNs);
    h.add(cfg.maxOutstandingMisses);
    h.add(cfg.frontendDepth);
    h.add(cfg.thermalHerding);
    h.add(cfg.pipeOpts);
    h.add(cfg.stacked);
    h.add(static_cast<int>(cfg.schedAlloc));
    h.add(cfg.pamEnabled);
    h.add(cfg.pveEnabled);
    h.add(cfg.btbMemoEnabled);
    h.add(cfg.widthPredEntries);
    h.add(static_cast<int>(cfg.widthPredKind));
    return h.h;
}

std::uint64_t
dtmConfigHash(const CoreConfig &cfg, const DtmOptions &opts)
{
    Hasher h;
    h.add(configHash(cfg));
    h.add(static_cast<std::uint64_t>(kDtmReportSchemaVersion));
    h.add(opts.intervalCycles);
    h.add(opts.maxIntervals);
    h.add(opts.warmupInstructions);
    h.add(static_cast<int>(opts.policy));
    h.add(opts.triggers.triggerK);
    h.add(opts.triggers.hysteresisK);
    h.add(opts.timeDilation);
    h.add(opts.gridN);
    h.add(opts.maxDtS);
    h.add(static_cast<int>(opts.solver));
    return h.h;
}

std::uint64_t
intervalFamilyHash(const CoreConfig &cfg)
{
    // configHash's field list minus the replay-retargeted axes:
    // freqGhz, stacked, fetchWidth, decodeWidth, issueWidth,
    // commitWidth. Keep the two lists in sync when CoreConfig grows.
    Hasher h;
    h.add(cfg.ifqSize);
    h.add(cfg.robSize);
    h.add(cfg.rsSize);
    h.add(cfg.lqSize);
    h.add(cfg.sqSize);
    h.add(cfg.numIntAlu);
    h.add(cfg.numIntShift);
    h.add(cfg.numIntMult);
    h.add(cfg.numFpAdd);
    h.add(cfg.numFpMult);
    h.add(cfg.numFpDiv);
    h.add(cfg.numLoadPorts);
    h.add(cfg.numStorePorts);
    h.add(cfg.il1Bytes);
    h.add(cfg.il1Assoc);
    h.add(cfg.il1LineBytes);
    h.add(cfg.dl1Bytes);
    h.add(cfg.dl1Assoc);
    h.add(cfg.dl1LineBytes);
    h.add(cfg.l2Bytes);
    h.add(cfg.l2Assoc);
    h.add(cfg.l2LineBytes);
    h.add(cfg.il1Cycles);
    h.add(cfg.dl1Cycles);
    h.add(cfg.itlbEntries);
    h.add(cfg.itlbAssoc);
    h.add(cfg.dtlbEntries);
    h.add(cfg.dtlbAssoc);
    h.add(cfg.tlbMissCycles);
    h.add(cfg.bimodalEntries);
    h.add(cfg.localHistEntries);
    h.add(cfg.localHistBits);
    h.add(cfg.localCounterEntries);
    h.add(cfg.globalHistBits);
    h.add(cfg.chooserEntries);
    h.add(cfg.btbEntries);
    h.add(cfg.btbAssoc);
    h.add(cfg.ibtbEntries);
    h.add(cfg.ibtbAssoc);
    h.add(cfg.memLatencyNs);
    h.add(cfg.maxOutstandingMisses);
    h.add(cfg.frontendDepth);
    h.add(cfg.thermalHerding);
    h.add(cfg.pipeOpts);
    h.add(static_cast<int>(cfg.schedAlloc));
    h.add(cfg.pamEnabled);
    h.add(cfg.pveEnabled);
    h.add(cfg.btbMemoEnabled);
    h.add(cfg.widthPredEntries);
    h.add(static_cast<int>(cfg.widthPredKind));
    return h.h;
}

std::uint64_t
intervalModelKey(const CoreConfig &cfg, const IntervalOptions &opts)
{
    Hasher h;
    h.add(intervalFamilyHash(cfg));
    h.add(static_cast<std::uint64_t>(kIntervalModelSchemaVersion));
    h.add(opts.fitIntervalCycles);
    h.add(opts.fitCycles);
    h.add(opts.phaseIpcTolerance);
    h.add(opts.warmupInstructions);
    h.add(opts.throttleFitCycles);
    return h.h;
}

std::uint64_t
multicoreConfigHash(const CoreConfig &cfg, const MulticoreConfig &mc)
{
    Hasher h;
    h.add(configHash(cfg));
    h.add(static_cast<std::uint64_t>(kMulticoreReportSchemaVersion));
    h.add(mc.numCores);
    h.add(mc.l2Banks);
    h.add(mc.l2BankServiceCycles);
    h.add(mc.l2MshrPerCore);
    // The per-core mix shapes every stream: fold names and order.
    h.add(static_cast<std::uint64_t>(mc.benchmarks.size()));
    for (const std::string &b : mc.benchmarks) {
        h.add(static_cast<std::uint64_t>(b.size()));
        h.bytes(b.data(), b.size());
    }
    // Embedded per-core DTM knobs: same set dtmConfigHash folds.
    h.add(mc.dtm.intervalCycles);
    h.add(mc.dtm.maxIntervals);
    h.add(mc.dtm.warmupInstructions);
    h.add(static_cast<int>(mc.dtm.policy));
    h.add(mc.dtm.triggers.triggerK);
    h.add(mc.dtm.triggers.hysteresisK);
    h.add(mc.dtm.timeDilation);
    h.add(mc.dtm.gridN);
    h.add(mc.dtm.maxDtS);
    h.add(static_cast<int>(mc.dtm.solver));
    return h.h;
}

} // namespace th
