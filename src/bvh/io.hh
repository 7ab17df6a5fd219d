/**
 * @file
 * Flat binary serialization of a built Bvh, used by the harness's
 * bundle disk cache so benchmark binaries don't rebuild multi-million
 * triangle BVHs on every launch. The format is an internal cache — not
 * a stable interchange format — and is versioned by the harness. The
 * bytes go through the shared codec (snapshot/serializer.hh).
 */

#ifndef TRT_BVH_IO_HH
#define TRT_BVH_IO_HH

#include <istream>
#include <ostream>

#include "bvh/bvh.hh"

namespace trt
{

/** Save/load access to Bvh internals. */
struct BvhIo
{
    static void save(std::ostream &os, const Bvh &bvh);
    /** Reads from the stream's current position. @return false on
     *  malformed input, including a structure that traversal could not
     *  walk safely (see consistent()). */
    static bool load(std::istream &is, Bvh &bvh);

  private:
    /** Every index traversal follows stays in range, and the tree has
     *  no cycles. */
    static bool consistent(const Bvh &bvh);
};

} // namespace trt

#endif // TRT_BVH_IO_HH
