#include "dag.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace qc {

DependencyDag::DependencyDag(const Circuit &circuit)
    : nodes_(circuit.size())
{
    std::vector<int> last_on_qubit(circuit.numQubits(), -1);
    for (size_t i = 0; i < nodes_.size(); ++i) {
        const Gate &g = circuit.gate(i);
        const int gi = static_cast<int>(i);
        Node &node = nodes_[i];
        const int operands[2] = {g.q0, g.q1};
        const int arity = g.isTwoQubit() ? 2 : 1;
        for (int k = 0; k < arity; ++k) {
            int &last = last_on_qubit[operands[k]];
            // A repeated pair (e.g. cx a,b; cx a,b) names the same
            // predecessor through both operands: keep one edge. Each
            // edge is the next use of one of prev's qubits, so prev
            // gains at most two successors.
            const bool dup = node.numPreds == 1 && node.preds[0] == last;
            if (last >= 0 && !dup) {
                node.preds[node.numPreds++] = last;
                Node &prev = nodes_[static_cast<size_t>(last)];
                prev.succs[prev.numSuccs++] = gi;
            }
            last = gi;
        }
    }
}

std::vector<int>
DependencyDag::roots() const
{
    std::vector<int> r;
    for (size_t i = 0; i < nodes_.size(); ++i)
        if (nodes_[i].numPreds == 0)
            r.push_back(static_cast<int>(i));
    return r;
}

std::vector<int>
DependencyDag::sinks() const
{
    std::vector<int> r;
    for (size_t i = 0; i < nodes_.size(); ++i)
        if (nodes_[i].numSuccs == 0)
            r.push_back(static_cast<int>(i));
    return r;
}

bool
DependencyDag::dependsOn(int b, int a) const
{
    if (b <= a)
        return false;
    // DFS backwards from b; indices only decrease along pred edges.
    std::vector<int> stack{b};
    std::vector<bool> seen(nodes_.size(), false);
    while (!stack.empty()) {
        int cur = stack.back();
        stack.pop_back();
        if (cur == a)
            return true;
        if (cur < a || seen[cur])
            continue;
        seen[cur] = true;
        for (int p : preds(cur))
            stack.push_back(p);
    }
    return false;
}

Timeslot
DependencyDag::criticalPath(const std::vector<Timeslot> &durations) const
{
    QC_ASSERT(durations.size() == nodes_.size(),
              "duration vector arity mismatch");
    std::vector<Timeslot> finish(nodes_.size(), 0);
    Timeslot best = 0;
    for (size_t i = 0; i < nodes_.size(); ++i) {
        Timeslot start = 0;
        for (int p : preds(static_cast<int>(i)))
            start = std::max(start, finish[p]);
        finish[i] = start + durations[i];
        best = std::max(best, finish[i]);
    }
    return best;
}

std::vector<int>
DependencyDag::depths() const
{
    std::vector<int> depth(nodes_.size(), 1);
    for (size_t i = 0; i < nodes_.size(); ++i)
        for (int p : preds(static_cast<int>(i)))
            depth[i] = std::max(depth[i], depth[p] + 1);
    return depth;
}

} // namespace qc
