#include "obs/stages.hpp"

#include "obs/flight/flight.hpp"

namespace intellog::obs {

namespace stage_detail {
constinit std::atomic<unsigned> g_sinks{0};
}  // namespace stage_detail

void ObsStage::enter() {
  frame_.emplace(kStageNames[stage_]);
  FLIGHT_EVENT(kStageBegin, stage_, 0);
}

void ObsStage::leave() {
  FLIGHT_EVENT(kStageEnd, stage_, 0);
  frame_.reset();
}

}  // namespace intellog::obs
