// The point-to-point message record shared by every transport backend.
// Split out of mp/communicator.hpp so the transport seam
// (mp/transport.hpp) does not depend on the in-process World.
#pragma once

#include "mp/payload.hpp"

namespace dlb {

/// A point-to-point message: a few 64-bit words, stored inline (heap
/// spill beyond MpPayload::kInlineWords — see mp/payload.hpp).  Exactly
/// one cache line, so mailbox slots recycle without touching the heap.
struct MpMessage {
  int source = -1;
  int tag = 0;
  MpPayload payload;
};

}  // namespace dlb
