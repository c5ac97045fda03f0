/**
 * @file
 * The five processor configurations evaluated in Section 5.1.2, plus
 * the "3D without Thermal Herding" variant used by the power and
 * thermal studies (Figures 9 and 10).
 */

#ifndef TH_SIM_CONFIGS_H
#define TH_SIM_CONFIGS_H

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/blocks.h"
#include "core/params.h"
#include "dtm/engine.h"
#include "interval/model.h"
#include "multicore/multicore.h"

namespace th {

/** Named evaluation configurations (Figure 8). */
enum class ConfigKind {
    Base,     ///< Planar baseline at 2.66 GHz.
    TH,       ///< Thermal Herding mechanisms, baseline clock.
    Pipe,     ///< 3D pipeline optimisations, baseline clock.
    Fast,     ///< Baseline microarchitecture at the 3D clock.
    ThreeD,   ///< Full 3D: herding + pipe opts + 3D clock.
    ThreeDNoTH ///< 3D clock + pipe opts, herding disabled (Fig. 9/10).
};

/** Every ConfigKind, in declaration order. */
inline constexpr ConfigKind kAllConfigKinds[] = {
    ConfigKind::Base, ConfigKind::TH,     ConfigKind::Pipe,
    ConfigKind::Fast, ConfigKind::ThreeD, ConfigKind::ThreeDNoTH};

/** Display name ("Base", "TH", ...). */
const char *configName(ConfigKind kind);

/** The kind whose configName() is @p name; false when none is. */
bool configKindByName(const std::string &name, ConfigKind &out);

/** All Figure 8 configurations in presentation order. */
std::vector<ConfigKind> figure8Configs();

/**
 * Build a core configuration. Clock frequencies come from the circuit
 * library's critical-loop analysis (2.66 GHz planar; ~3.9 GHz 3D).
 */
CoreConfig makeConfig(ConfigKind kind, const BlockLibrary &lib);

/**
 * Stable hash over every behaviour-affecting CoreConfig field — the
 * key of the System-level CoreResult cache AND of the persistent
 * artifact store (store/artifact_store.h). Two configs with equal
 * hashes are treated as the same simulation input, so any new field
 * added to CoreConfig must join forEachConfigField (core/params.h),
 * the list this folds. Because these hashes name on-disk artifacts,
 * any intentional change to the hashed field set must bump
 * kStoreSchemaVersion (store/artifact_store.h) and update the
 * golden-hash table in tests/test_configs.cpp.
 */
std::uint64_t configHash(const CoreConfig &cfg);

/**
 * Store key of a DTM run: configHash(cfg) folded with every DtmOptions
 * knob (forEachDtmOption in dtm/engine.h) and the DtmReport schema
 * version — two DTM runs share a persisted artifact iff every input
 * that shapes the report matches.
 */
std::uint64_t dtmConfigHash(const CoreConfig &cfg,
                            const DtmOptions &opts);

/**
 * Config-family identity for the interval fast path: configHash's
 * field set minus the axes replay retargets analytically — clock
 * frequency, stacking, and the fetch/decode/issue/commit widths. Two
 * configs with equal family hashes share one fitted IntervalModel;
 * everything that changes the core's cycle-level behaviour in ways
 * replay cannot correct (cache geometry, predictors, herding, queue
 * sizes, ...) keeps its own family.
 */
std::uint64_t intervalFamilyHash(const CoreConfig &cfg);

/**
 * Store key of a fitted IntervalModel: intervalFamilyHash(cfg) folded
 * with every IntervalOptions knob and the IMDL schema version — two
 * fits share a persisted model iff every input that shapes the fit
 * matches. th_lint enforces the IntervalOptions field coverage.
 */
std::uint64_t intervalModelKey(const CoreConfig &cfg,
                               const IntervalOptions &opts);

/**
 * Store key of a many-core run: configHash(cfg) folded with every
 * MulticoreConfig field (core count, bank geometry, queue model, the
 * per-core benchmark mix, and the embedded DtmOptions through
 * forEachDtmOption) and the MulticoreReport schema version —
 * two runs share a persisted artifact iff every input that shapes the
 * report matches. th_lint enforces the MulticoreConfig field coverage.
 */
std::uint64_t multicoreConfigHash(const CoreConfig &cfg,
                                  const MulticoreConfig &mc);

} // namespace th

#endif // TH_SIM_CONFIGS_H
