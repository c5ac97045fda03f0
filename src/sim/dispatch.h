/**
 * @file
 * The one request dispatcher: validate a SimRequest, run it on a
 * System, and render its report. th_serve's workers call it on the
 * server's System; th_run's experiment subcommands build the same
 * SimRequest that --connect sends and call it on an in-process System.
 * Served and local output are therefore the same bytes by
 * construction.
 */

#ifndef TH_SIM_DISPATCH_H
#define TH_SIM_DISPATCH_H

#include <string>

#include "common/cancel.h"
#include "dtm/engine.h"
#include "io/request.h"
#include "sim/system.h"

namespace th {

/**
 * Semantic validation of @p req against the simulation window of the
 * System that will run it (@p window). False fills @p err with a
 * message naming the offending field.
 */
bool validateRequest(const SimRequest &req, const SimOptions &window,
                     std::string &err);

/**
 * DtmOptions of @p req's DTM knobs (0 / empty = the DtmOptions
 * default). @p req must have passed validateRequest, which rejects
 * unknown names and values the int fields cannot hold.
 */
DtmOptions dtmOptionsFrom(const SimRequest &req);

/**
 * Run the experiment behind @p req (which must have passed
 * validateRequest) on @p sys and render its report into the response
 * text. @p cancel, when non-null, aborts the simulation with a
 * Cancelled throw. Control-plane kinds (Ping, Metrics) are answered by
 * the server itself; here they yield an Internal status.
 */
SimResponse runRequest(System &sys, const SimRequest &req,
                       const CancelToken *cancel = nullptr);

} // namespace th

#endif // TH_SIM_DISPATCH_H
