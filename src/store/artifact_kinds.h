/**
 * @file
 * The artifact descriptor table: one row per kind of result the store
 * persists, naming its container format tag (also its payload chunk
 * tag), its file extension, and its codec from io/serialize.h. The
 * strings are on-disk format: changing one orphans every committed
 * entry of that kind. Adding a kind: DESIGN.md §7.1.
 */

#ifndef TH_STORE_ARTIFACT_KINDS_H
#define TH_STORE_ARTIFACT_KINDS_H

#include <tuple>

#include "io/serialize.h"

namespace th {

/** What the store's file code needs to know about a kind. */
struct ArtifactFormat
{
    const char *tag; ///< Container format tag and payload chunk tag.
    const char *ext; ///< File extension of committed entries.
};

/** One row of the table: a format plus the codec of payload type T. */
template <typename T>
struct ArtifactKind
{
    using Value = T;
    ArtifactFormat format;
    void (*encode)(Encoder &, const T &);
    bool (*decode)(Decoder &, T &);
};

/** Every persisted kind, one row each. */
inline constexpr std::tuple kArtifactKinds{
    ArtifactKind<CoreResult>{{"CRES", ".cr"}, encodeCoreResult,
                             decodeCoreResult},
    ArtifactKind<DtmReport>{{"DTMR", ".dtm"}, encodeDtmReport,
                            decodeDtmReport},
    ArtifactKind<IntervalModel>{{"IMDL", ".imdl"}, encodeIntervalModel,
                                decodeIntervalModel},
    ArtifactKind<MulticoreReport>{{"MCRE", ".mc"}, encodeMulticoreReport,
                                  decodeMulticoreReport},
};

/** The row of payload type @p T (no row: a compile error). */
template <typename T>
constexpr const ArtifactKind<T> &
artifactKind()
{
    return std::get<ArtifactKind<T>>(kArtifactKinds);
}

} // namespace th

#endif // TH_STORE_ARTIFACT_KINDS_H
