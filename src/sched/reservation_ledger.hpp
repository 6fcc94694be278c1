/**
 * @file
 * Indexed space-time reservation store for the list scheduler.
 *
 * The reference scheduler answers "when can this routed CNOT start?"
 * by scanning every reservation it ever committed (Eq. 7-9 checks
 * against the full history). The ledger replaces that scan with two
 * structural facts:
 *
 *  - Two regions overlap iff they share a qubit (Region is a
 *    qubit-set footprint), so bucketing each reservation under every
 *    qubit its region covers makes "spatially overlapping
 *    reservations" a bucket lookup over the candidate's own qubits —
 *    no set-intersection tests on unrelated reservations. On grid
 *    topologies qubits are grid cells, so this is exactly the
 *    historical per-cell bucketing; on arbitrary coupling graphs it
 *    works unchanged. Buckets are singly linked chains through one
 *    shared link array, so a reservation costs no per-bucket
 *    allocation.
 *
 *  - List-scheduling commit times are monotone non-decreasing (the
 *    scheduler always commits the minimum feasible start among ready
 *    gates), so once the commit frontier passes a reservation's end
 *    it can never again constrain a query. Such reservations are
 *    retired lazily during bucket scans.
 *
 * feasibleStart computes exactly the fixed point the reference scan
 * computes — the minimal feasible start is unique (every push past an
 * overlapping reservation is forced), so the two implementations are
 * bit-identical; tests/test_scheduler_hotpath.cpp asserts this across
 * every mapper bundle, randomized dense-CNOT programs, and non-grid
 * topologies.
 */

#ifndef QC_SCHED_RESERVATION_LEDGER_HPP
#define QC_SCHED_RESERVATION_LEDGER_HPP

#include <vector>

#include "route/region.hpp"
#include "support/types.hpp"

namespace qc {

/**
 * Active space-time reservations, bucketed per hardware qubit behind
 * a monotone retirement frontier.
 */
class ReservationLedger
{
  public:
    /** @param num_qubits qubit count of the machine topology */
    explicit ReservationLedger(int num_qubits);

    /**
     * Pre-size for `reservations` reservations whose regions cover
     * `cells` qubits in total, so recording them allocates nothing.
     */
    void reserveCapacity(size_t reservations, size_t cells);

    /** Record a reservation of `region` over [start, end). */
    void reserve(const Region &region, Timeslot start, Timeslot end);

    /**
     * Advance the retirement frontier to `t` (monotone; lesser values
     * are ignored). The caller promises every later feasibleStart
     * resolves to >= t, so reservations with end <= t are dead and
     * get dropped from their buckets lazily.
     */
    void advanceFrontier(Timeslot t);

    Timeslot frontier() const { return frontier_; }

    /**
     * Minimal start >= max(earliest, frontier()) such that
     * [start, start + duration) overlaps no live reservation whose
     * region overlaps `region` — the same fixed point the reference
     * full-history scan reaches, because a time-overlapping
     * reservation leaves no feasible slot before its end.
     *
     * Non-const only because dead reservations are purged from the
     * buckets it touches.
     */
    Timeslot feasibleStart(const Region &region, Timeslot duration,
                           Timeslot earliest);

    /** Reservations whose interval ends past the frontier. */
    int liveCount() const;

    /** Every reservation ever recorded (diagnostics). */
    int totalCount() const { return static_cast<int>(entries_.size()); }

  private:
    struct Entry
    {
        Timeslot start;
        Timeslot end;
        int visitStamp; ///< last feasibleStart sweep that saw it
    };

    /** One entry's membership in one qubit's bucket chain. */
    struct Link
    {
        int entry;
        int next; ///< next link in the bucket, -1 at the end
    };

    /** Bounds-check `region` against the machine's qubit range. */
    void checkRegion(const Region &region) const;

    int numQubits_;
    Timeslot frontier_ = 0;
    std::vector<Entry> entries_;
    std::vector<Link> links_; ///< every bucket's links, append-only
    std::vector<int> head_;   ///< qubit -> first link, -1 if empty
    int sweepSerial_ = 0;
};

} // namespace qc

#endif // QC_SCHED_RESERVATION_LEDGER_HPP
