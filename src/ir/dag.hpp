/**
 * @file
 * Data-dependency DAG over a circuit's gates (the paper's relation
 * "g2 > g1": g2 must start after g1 finishes, constraint 3).
 */

#ifndef QC_IR_DAG_HPP
#define QC_IR_DAG_HPP

#include <array>
#include <vector>

#include "ir/circuit.hpp"
#include "support/types.hpp"

namespace qc {

/**
 * Dependency DAG: gate i depends on gate j iff they share a qubit and
 * j is the most recent earlier gate on that qubit. Gate indices refer
 * to positions in the source circuit, whose program order is a valid
 * topological order.
 *
 * A gate acts on at most two qubits, so it has at most two direct
 * predecessors (the last writer of each operand) and at most two
 * direct successors (the next gate on each operand). The edges live
 * in one flat array of fixed two-slot records.
 */
class DependencyDag
{
  public:
    /** Read-only view of a gate's (at most two) direct neighbors. */
    class Neighbors
    {
      public:
        Neighbors(const int *ids, int count) : ids_(ids), count_(count)
        {
        }

        const int *begin() const { return ids_; }
        const int *end() const { return ids_ + count_; }
        size_t size() const { return static_cast<size_t>(count_); }
        bool empty() const { return count_ == 0; }
        int operator[](size_t k) const { return ids_[k]; }

      private:
        const int *ids_;
        int count_;
    };

    explicit DependencyDag(const Circuit &circuit);

    size_t numGates() const { return nodes_.size(); }

    /**
     * Direct predecessors of gate i, deduplicated, in operand order
     * (the last writer of q0, then of q1).
     */
    Neighbors preds(int i) const
    {
        const Node &n = nodes_[static_cast<size_t>(i)];
        return {n.preds.data(), n.numPreds};
    }

    /** Direct successors of gate i, in increasing gate index. */
    Neighbors succs(int i) const
    {
        const Node &n = nodes_[static_cast<size_t>(i)];
        return {n.succs.data(), n.numSuccs};
    }

    /** Gates with no predecessors. */
    std::vector<int> roots() const;

    /** Gates with no successors. */
    std::vector<int> sinks() const;

    /** True if gate b transitively depends on gate a. */
    bool dependsOn(int b, int a) const;

    /**
     * Length of the longest path through the DAG where gate i
     * contributes durations[i]; the paper's schedule lower bound.
     */
    Timeslot criticalPath(const std::vector<Timeslot> &durations) const;

    /**
     * ASAP depth of each gate counting every gate as one step
     * (classic circuit depth when applied with unit durations).
     */
    std::vector<int> depths() const;

  private:
    struct Node
    {
        std::array<int, 2> preds{};
        std::array<int, 2> succs{};
        int numPreds = 0;
        int numSuccs = 0;
    };

    std::vector<Node> nodes_;
};

} // namespace qc

#endif // QC_IR_DAG_HPP
