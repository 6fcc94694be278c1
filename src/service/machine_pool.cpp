#include "machine_pool.hpp"

#include <utility>

#include "service/fingerprints.hpp"

namespace qc::service {

MachinePool::MachinePool(std::size_t capacity) : capacity_(capacity)
{
}

void
MachinePool::touchLocked(std::uint64_t key)
{
    auto pos = lruPos_.find(key);
    if (pos != lruPos_.end()) {
        lru_.splice(lru_.begin(), lru_, pos->second);
        return;
    }
    lru_.push_front(key);
    lruPos_[key] = lru_.begin();
    if (capacity_ == 0)
        return;
    while (lru_.size() > capacity_) {
        // Evicting drops only the pool's reference; snapshots held by
        // in-flight jobs (or a peer blocked on the build) stay alive
        // through their own shared_ptr/shared_future copies.
        std::uint64_t victim = lru_.back();
        lru_.pop_back();
        lruPos_.erase(victim);
        pool_.erase(victim);
        ++stats_.evictions;
    }
}

std::shared_ptr<const Machine>
MachinePool::acquire(const Topology &topo, const Calibration &cal)
{
    return acquire(machineKey(topo, cal), topo, cal);
}

std::shared_ptr<const Machine>
MachinePool::acquire(std::uint64_t key, const Topology &topo,
                     const Calibration &cal)
{
    std::promise<std::shared_ptr<const Machine>> promise;
    Entry entry;
    bool builder = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = pool_.find(key);
        if (it != pool_.end()) {
            ++stats_.hits;
            entry = it->second;
        } else {
            builder = true;
            ++stats_.builds;
            entry = promise.get_future().share();
            pool_.emplace(key, entry);
        }
        touchLocked(key);
    }

    if (!builder)
        return entry.get(); // blocks only while a peer is building

    // Build outside the lock: snapshot construction (one-bend paths +
    // Dijkstra) is the expensive part and must not serialize peers
    // working on other calibration days.
    try {
        promise.set_value(std::make_shared<const Machine>(topo, cal));
    } catch (...) {
        {
            // Failed builds must not poison the key forever.
            std::lock_guard<std::mutex> lock(mu_);
            auto pos = lruPos_.find(key);
            if (pos != lruPos_.end()) {
                lru_.erase(pos->second);
                lruPos_.erase(pos);
            }
            pool_.erase(key);
        }
        promise.set_exception(std::current_exception());
    }
    return entry.get();
}

std::shared_ptr<const Machine>
MachinePool::tryAcquire(const Topology &topo,
                        const Calibration &cal)
{
    return tryAcquire(machineKey(topo, cal));
}

std::shared_ptr<const Machine>
MachinePool::tryAcquire(std::uint64_t key)
{
    Entry entry;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = pool_.find(key);
        if (it == pool_.end())
            return nullptr;
        ++stats_.hits;
        entry = it->second;
        touchLocked(key);
    }
    return entry.get();
}

std::size_t
MachinePool::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return pool_.size();
}

MachinePoolStats
MachinePool::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
MachinePool::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    pool_.clear();
    lru_.clear();
    lruPos_.clear();
}

} // namespace qc::service
