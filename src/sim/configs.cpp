#include "sim/configs.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <type_traits>

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
    template <class E>
        requires std::is_enum_v<E>
    void add(E v)
    {
        add(static_cast<int>(v));
    }

    /** Visitor of forEachConfigField / forEachDtmOption. */
    template <class T>
    void operator()(const char *, const T &v)
    {
        add(v);
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
    for (ConfigKind k : kAllConfigKinds) {
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
    // The display name is deliberately not in the list: it never
    // affects the simulation, and ablation variants share the base name.
    Hasher h;
    forEachConfigField(h, cfg);
    return h.h;
}

std::uint64_t
dtmConfigHash(const CoreConfig &cfg, const DtmOptions &opts)
{
    Hasher h;
    h.add(configHash(cfg));
    h.add(static_cast<std::uint64_t>(kDtmReportSchemaVersion));
    forEachDtmOption(h, opts);
    return h.h;
}

std::uint64_t
intervalFamilyHash(const CoreConfig &cfg)
{
    // configHash's list minus the axes replay retargets analytically.
    const void *const retargeted[] = {&cfg.fetchWidth,  &cfg.decodeWidth,
                                      &cfg.commitWidth, &cfg.issueWidth,
                                      &cfg.freqGhz,     &cfg.stacked};
    Hasher h;
    forEachConfigField(
        [&](const char *, const auto &v) {
            const void *field = &v;
            if (std::find(std::begin(retargeted), std::end(retargeted),
                          field) == std::end(retargeted))
                h.add(v);
        },
        cfg);
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
    // Embedded per-core DTM knobs: the list dtmConfigHash folds.
    forEachDtmOption(h, mc.dtm);
    return h.h;
}

} // namespace th
