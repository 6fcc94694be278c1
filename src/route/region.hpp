/**
 * @file
 * Spatial reservation geometry for CNOT routing (paper Sec. 4.3).
 *
 * A Region is the set of hardware qubits a routed CNOT reserves for
 * its duration; two CNOTs may overlap in time only if their regions
 * share no qubit (the paper's S(Ri, Rj) predicate, Eq. 7-9, holds
 * exactly when the covered cell sets intersect, so the qubit-set
 * formulation generalizes the rectangle test to arbitrary coupling
 * graphs without changing it on grids).
 *
 * On grid topologies the footprints are the paper's rectangles —
 * Rectangle Reservation (RR) blocks the full bounding box of a CNOT's
 * endpoints, One-Bend Paths (1BP) block only the two leg segments
 * through the chosen junction, which are exactly the route's nodes.
 * regionFromRects gives the same footprint from the rectangles.
 */

#ifndef QC_ROUTE_REGION_HPP
#define QC_ROUTE_REGION_HPP

#include <string>
#include <vector>

#include "machine/topology.hpp"

namespace qc {

/** Inclusive axis-aligned grid rectangle (grid-topology geometry). */
struct Rect
{
    int x0 = 0;
    int y0 = 0;
    int x1 = 0;
    int y1 = 0;

    /** Normalized rect spanning two grid positions. */
    static Rect spanning(GridPos a, GridPos b);

    /** The paper's S(Ri, Rj) overlap predicate (Eq. 7). */
    bool overlaps(const Rect &other) const;

    bool contains(GridPos p) const;

    int area() const { return (x1 - x0 + 1) * (y1 - y0 + 1); }

    std::string toString() const;
};

/**
 * Qubit-set footprint reserved by one routed CNOT.
 *
 * `qubits` is sorted and duplicate-free (the factory functions
 * guarantee it); overlap is sorted-set intersection.
 */
struct Region
{
    std::vector<HwQubit> qubits;

    /** Sort + dedupe an arbitrary qubit list into a Region. */
    static Region fromQubits(std::vector<HwQubit> qs);

    /** Shared-qubit test — the generalized Overlap(i, j) (Eq. 9). */
    bool overlaps(const Region &other) const;

    bool contains(HwQubit h) const;

    bool empty() const { return qubits.empty(); }
};

/** All qubit ids covered by `r` on a grid topology, row-major. */
std::vector<HwQubit> rectQubits(const Topology &topo, const Rect &r);

/**
 * The grid specialization: the union-of-rectangles footprint. Two
 * regions built this way overlap exactly when some pair of their
 * rects overlaps (inclusive rectangles intersect iff they share a
 * cell), so reservations are bit-identical to the rect formulation.
 */
Region regionFromRects(const Topology &topo,
                       const std::vector<Rect> &rects);

} // namespace qc

#endif // QC_ROUTE_REGION_HPP
