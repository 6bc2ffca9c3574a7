// HW-graph instances as span trees (the Workflow Observatory's first
// pillar).
//
// A reconstructed HW-graph instance already has trace shape: an
// entity-group lifespan is a parent span, each subroutine execution is a
// child span, and every Intel-Key hit is an instant event — all timed by
// the session's own log-record timestamps. These exporters serialize that
// mapping:
//  - hwgraph_chrome_trace(): Chrome trace-event JSON; loads directly in
//    Perfetto (https://ui.perfetto.dev) or about://tracing. One process
//    per session, one thread track per entity group.
//  - hwgraph_otlp_json(): an OTLP-style JSON document (resourceSpans →
//    scopeSpans → spans) with deterministic hashed trace/span ids and the
//    containment tree expressed through parentSpanId.
//
// This library lives outside intellog_obs because it needs the trained
// model (core depends on obs; the exporters depend on core).
#pragma once

#include <span>

#include "common/json.hpp"
#include "core/intellog.hpp"
#include "logparse/session.hpp"
#include "obs/flight/flight.hpp"

namespace intellog::obs {

/// Chrome trace-event document for the given sessions' HW-graph instances
/// against a trained model. Timestamps are rebased so the earliest record
/// across all sessions is t=0 (log time is wall-clock ms; the trace wants
/// a compact µs axis).
common::Json hwgraph_chrome_trace(const core::IntelLog& model,
                                  std::span<const logparse::Session> sessions);

/// OTLP-style JSON export of the same span trees: one resourceSpans entry
/// per session (resource carries container/system/file attributes), group
/// and subroutine spans nested via parentSpanId, Intel-Key hits as span
/// events. Ids are FNV-1a hashes of the span paths, so re-exporting the
/// same sessions yields byte-identical documents.
common::Json hwgraph_otlp_json(const core::IntelLog& model,
                               std::span<const logparse::Session> sessions);

/// Chrome trace-event document for a decoded flight-recorder dump
/// (`intellog flight decode --trace`). One process, one thread track per
/// ring slot (named by OS tid); stage begin/end records (OBS_STAGE) become
/// paired B/E spans named by the stage, dropping an end whose begin the
/// ring already overwrote; every other event is a thread-scoped instant
/// carrying its annotated args. Timestamps are the records' steady-clock values rebased
/// so the oldest surviving event is t=0.
common::Json flight_chrome_trace(const flight::FlightDump& dump);

}  // namespace intellog::obs
