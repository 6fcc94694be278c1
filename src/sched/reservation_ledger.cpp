#include "reservation_ledger.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace qc {

ReservationLedger::ReservationLedger(int num_qubits)
    : numQubits_(num_qubits),
      head_(static_cast<size_t>(std::max(num_qubits, 0)), -1)
{
    QC_ASSERT(num_qubits > 0, "degenerate machine with ", num_qubits,
              " qubits");
}

void
ReservationLedger::checkRegion(const Region &region) const
{
    // Out-of-range qubits would make the bucketed overlap test
    // diverge from Region::overlaps (the reference semantics), so
    // they are a hard error rather than something to clamp away.
    for (HwQubit h : region.qubits)
        QC_ASSERT(h >= 0 && h < numQubits_, "reservation qubit ", h,
                  " outside the ", numQubits_, "-qubit machine");
}

void
ReservationLedger::reserveCapacity(size_t reservations, size_t cells)
{
    entries_.reserve(reservations);
    links_.reserve(cells);
}

void
ReservationLedger::reserve(const Region &region, Timeslot start,
                           Timeslot end)
{
    if (end <= frontier_)
        return; // born dead: can never constrain a future query
    checkRegion(region);
    const int id = static_cast<int>(entries_.size());
    entries_.push_back({start, end, 0});
    // Region qubit sets are sorted and unique by construction, so
    // each bucket sees this entry exactly once.
    for (HwQubit h : region.qubits) {
        links_.push_back({id, head_[h]});
        head_[h] = static_cast<int>(links_.size()) - 1;
    }
}

void
ReservationLedger::advanceFrontier(Timeslot t)
{
    frontier_ = std::max(frontier_, t);
}

Timeslot
ReservationLedger::feasibleStart(const Region &region,
                                 Timeslot duration, Timeslot earliest)
{
    Timeslot start = std::max(earliest, frontier_);
    checkRegion(region);
    bool moved = true;
    while (moved) {
        moved = false;
        ++sweepSerial_;
        for (HwQubit h : region.qubits) {
            int *link = &head_[h];
            while (*link >= 0) {
                Link &l = links_[static_cast<size_t>(*link)];
                Entry &e = entries_[static_cast<size_t>(l.entry)];
                if (e.end <= frontier_) {
                    // Retired: can never matter again; unlink it from
                    // this bucket (other buckets purge on their own
                    // scans).
                    *link = l.next;
                    continue;
                }
                if (e.visitStamp != sweepSerial_) {
                    e.visitStamp = sweepSerial_;
                    // Spatial overlap is implied: this entry's region
                    // covers qubit h, which the candidate also covers.
                    if (start < e.end && e.start < start + duration) {
                        start = e.end;
                        moved = true;
                    }
                }
                link = &l.next;
            }
        }
    }
    return start;
}

int
ReservationLedger::liveCount() const
{
    int n = 0;
    for (const Entry &e : entries_)
        if (e.end > frontier_)
            ++n;
    return n;
}

} // namespace qc
