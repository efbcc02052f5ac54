// SemanticIdCodec and the routers are header-only; this translation unit
// anchors the module in the library and hosts the ID-reduction helper of
// §4.2.

#include "semid/semantic_id.h"

#include "semid/routing.h"

namespace nblb {

// Intentionally empty: see headers.

}  // namespace nblb
