/**
 * @file
 * Keyed pool of immutable, shared Machine snapshots.
 *
 * Building a Machine runs the one-bend-path and all-pairs Dijkstra
 * precompute (src/machine/machine.cpp) — by far the most expensive
 * per-day setup. In the daily-recompilation workload every job on the
 * same (topology, calibration) pair needs the same tables, so the
 * pool builds each snapshot exactly once — even under concurrent
 * first-acquires — and hands out shared_ptr<const Machine> views.
 */

#ifndef QC_SERVICE_MACHINE_POOL_HPP
#define QC_SERVICE_MACHINE_POOL_HPP

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "machine/calibration.hpp"
#include "machine/machine.hpp"
#include "machine/topology.hpp"

namespace qc::service {

/** Counters exposed by MachinePool::stats(). */
struct MachinePoolStats
{
    std::uint64_t builds = 0;    ///< snapshots constructed
    std::uint64_t hits = 0;      ///< acquires served from the pool
    std::uint64_t evictions = 0; ///< snapshots dropped by LRU bound
};

/**
 * Thread-safe machine-snapshot pool keyed by content fingerprint.
 *
 * acquire() returns an existing snapshot when one with the same
 * (topology, calibration) fingerprint is pooled; otherwise it builds
 * one. A second thread acquiring the same key mid-build blocks on the
 * first build instead of duplicating it.
 */
class MachinePool
{
  public:
    /**
     * @param capacity max snapshots retained; least-recently-used
     *        entries are evicted beyond it (snapshots are the big
     *        objects here — all-pairs tables — so a long-lived
     *        service must not accumulate every calibration day it
     *        ever saw). 0 means unbounded.
     */
    explicit MachinePool(std::size_t capacity = 64);

    /**
     * Get (building if needed) the snapshot for this machine-day.
     * The returned pointer is never null and stays valid for the
     * caller's lifetime regardless of eviction or clear().
     */
    std::shared_ptr<const Machine> acquire(const Topology &topo,
                                           const Calibration &cal);

    /**
     * acquire() for a caller that already holds the machine-day's
     * fingerprint; `key` must equal machineKey(topo, cal).
     */
    std::shared_ptr<const Machine> acquire(std::uint64_t key,
                                           const Topology &topo,
                                           const Calibration &cal);

    /**
     * The pooled snapshot for this machine-day, or null without
     * building one — for callers who only want it if it's cheap
     * (e.g. the compile-cache hit path).
     */
    std::shared_ptr<const Machine> tryAcquire(const Topology &topo,
                                              const Calibration &cal);

    /** tryAcquire() by fingerprint: `key` = machineKey(topo, cal). */
    std::shared_ptr<const Machine> tryAcquire(std::uint64_t key);

    /** Number of snapshots currently pooled. */
    std::size_t size() const;

    std::size_t capacity() const { return capacity_; }

    MachinePoolStats stats() const;

    /** Drop pooled snapshots (outstanding shared_ptrs stay valid). */
    void clear();

  private:
    using Entry = std::shared_future<std::shared_ptr<const Machine>>;

    /** Move `key` to MRU (inserting if new); evict past capacity. */
    void touchLocked(std::uint64_t key);

    const std::size_t capacity_;
    mutable std::mutex mu_;
    std::unordered_map<std::uint64_t, Entry> pool_;
    std::list<std::uint64_t> lru_; ///< front = most recently used
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        lruPos_;
    MachinePoolStats stats_;
};

} // namespace qc::service

#endif // QC_SERVICE_MACHINE_POOL_HPP
