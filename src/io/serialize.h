/**
 * @file
 * Binary codecs for the simulation result types the artifact store
 * persists (CoreResult and the stats structs inside it, DtmReport,
 * IntervalModel, MulticoreReport) and for the wire records. Field
 * order is part of the on-disk schema: any change to a persisted
 * encoding — including adding a Counter to PerfStats/ActivityStats —
 * must bump kStoreSchemaVersion (store/artifact_store.h), which every
 * entry carries in its container header, so every persisted artifact
 * is invalidated instead of misread.
 */

#ifndef TH_IO_SERIALIZE_H
#define TH_IO_SERIALIZE_H

#include <cstdint>
#include <vector>

#include "core/pipeline.h"
#include "dtm/engine.h"
#include "interval/model.h"
#include "io/chunkio.h"
#include "io/request.h"
#include "multicore/multicore.h"

namespace th {

/** Schema version of the DtmReport encoding below. */
inline constexpr std::uint32_t kDtmReportSchemaVersion = 1;

/** Schema version of the IntervalModel encoding below. */
inline constexpr std::uint32_t kIntervalModelSchemaVersion = 1;

/** Schema version of the MulticoreReport encoding below. */
inline constexpr std::uint32_t kMulticoreReportSchemaVersion = 1;

/** Append @p h to @p enc (range, moments, and bucket counts). */
void encodeHistogram(Encoder &enc, const Histogram &h);

/** Decode into @p h; false on malformed state (decoder flagged too). */
bool decodeHistogram(Decoder &dec, Histogram &h);

/** Append every PerfStats field in schema order. */
void encodePerfStats(Encoder &enc, const PerfStats &perf);
bool decodePerfStats(Decoder &dec, PerfStats &perf);

/** Append every ActivityStats counter in schema order. */
void encodeActivityStats(Encoder &enc, const ActivityStats &act);
bool decodeActivityStats(Decoder &dec, ActivityStats &act);

/** Append a full CoreResult. */
void encodeCoreResult(Encoder &enc, const CoreResult &result);
bool decodeCoreResult(Decoder &dec, CoreResult &result);

/**
 * Canonical byte representation of a CoreResult — two results are
 * bit-identical iff these vectors compare equal (used by round-trip
 * tests and the store's integrity checks).
 */
std::vector<std::uint8_t> serializeCoreResult(const CoreResult &result);

/** Append a full DtmReport (header fields then interval samples). */
void encodeDtmReport(Encoder &enc, const DtmReport &rep);
bool decodeDtmReport(Decoder &dec, DtmReport &rep);

/** Canonical byte representation of a DtmReport (round-trip tests,
 *  store integrity checks) — mirrors serializeCoreResult(). */
std::vector<std::uint8_t> serializeDtmReport(const DtmReport &rep);

/** Append a full IntervalModel (header fields then phases). */
void encodeIntervalModel(Encoder &enc, const IntervalModel &m);
bool decodeIntervalModel(Decoder &dec, IntervalModel &m);

/** Canonical byte representation of an IntervalModel (round-trip
 *  tests, store integrity checks) — mirrors serializeCoreResult(). */
std::vector<std::uint8_t> serializeIntervalModel(const IntervalModel &m);

/** Append a full MulticoreReport (header, per-core rows, bank rows). */
void encodeMulticoreReport(Encoder &enc, const MulticoreReport &rep);
bool decodeMulticoreReport(Decoder &dec, MulticoreReport &rep);

/** Canonical byte representation of a MulticoreReport (round-trip
 *  tests, store integrity checks) — mirrors serializeCoreResult(). */
std::vector<std::uint8_t>
serializeMulticoreReport(const MulticoreReport &rep);

/** Append every SimRequest field in wire-schema order. */
void encodeSimRequest(Encoder &enc, const SimRequest &req);
bool decodeSimRequest(Decoder &dec, SimRequest &req);

/** Append every SimResponse field in wire-schema order. */
void encodeSimResponse(Encoder &enc, const SimResponse &rsp);
bool decodeSimResponse(Decoder &dec, SimResponse &rsp);

/**
 * Canonical byte representation of a SimRequest with the deadline
 * zeroed — the single-flight identity: two requests coalesce onto one
 * simulation iff these vectors compare equal.
 */
std::vector<std::uint8_t> flightKeyOf(const SimRequest &req);

} // namespace th

#endif // TH_IO_SERIALIZE_H
