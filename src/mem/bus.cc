#include "mem/bus.hh"

namespace ascoma::mem {

double Bus::utilization(Cycle horizon) const {
  if (horizon == Cycle{0}) return 0.0;
  return static_cast<double>(busy_.value()) /
         static_cast<double>(horizon.value());
}

}  // namespace ascoma::mem
