#include "fingerprints.hpp"

#include "support/fingerprint.hpp"

namespace qc::service {

std::uint64_t
fingerprintCircuit(const Circuit &circuit)
{
    Fingerprint fp;
    fp.mix(std::uint64_t{0xC14C}); // domain tag
    fp.mix(circuit.numQubits()).mix(circuit.numClbits());
    fp.mix(static_cast<std::uint64_t>(circuit.size()));
    for (const Gate &g : circuit.gates()) {
        fp.mix(static_cast<int>(g.op))
            .mix(g.q0)
            .mix(g.q1)
            .mix(g.cbit);
    }
    return fp.value();
}

std::uint64_t
fingerprintTopology(const Topology &topo)
{
    // Kind tag + qubit count + the canonical (a < b, id-ordered)
    // edge list. Mixing only grid extents used to alias any two
    // topologies with equal qubit counts (e.g. ring:8 vs linear:8 vs
    // grid:2x4) into one machine-pool/compile-cache key; the full
    // coupling graph is the identity.
    Fingerprint fp;
    fp.mix(std::uint64_t{0x7090}); // domain tag
    fp.mix(static_cast<int>(topo.kind())).mix(topo.numQubits());
    fp.mix(static_cast<std::uint64_t>(topo.numEdges()));
    for (const CouplingEdge &e : topo.edges())
        fp.mix(e.a).mix(e.b);
    return fp.value();
}

std::uint64_t
fingerprintCalibration(const Calibration &cal)
{
    Fingerprint fp;
    fp.mix(std::uint64_t{0xCA11}); // domain tag
    fp.mix(cal.day);
    fp.mixVector(cal.t1Us)
        .mixVector(cal.t2Us)
        .mixVector(cal.readoutError)
        .mixVector(cal.cnotError);
    fp.mix(static_cast<std::uint64_t>(cal.cnotDuration.size()));
    for (Timeslot d : cal.cnotDuration)
        fp.mix(static_cast<std::int64_t>(d));
    fp.mix(cal.oneQubitError)
        .mix(static_cast<std::int64_t>(cal.oneQubitDuration))
        .mix(static_cast<std::int64_t>(cal.readoutDuration));
    return fp.value();
}

std::uint64_t
fingerprintOptions(const CompilerOptions &options)
{
    Fingerprint fp;
    fp.mix(std::uint64_t{0x0975}); // domain tag
    fp.mix(static_cast<int>(options.mapper))
        .mix(static_cast<int>(options.policy))
        .mix(options.readoutWeight)
        .mix(static_cast<std::uint64_t>(options.smtTimeoutMs))
        .mix(options.jointScheduling)
        .mix(options.sabreIterations)
        .mix(options.sabreLookahead);
    // Portfolio knobs change which program comes back, so a portfolio
    // result must never alias a single-bundle cache entry (nor a
    // portfolio with different bundles/deadline). A disabled
    // portfolio mixes only the flag: its other knobs are inert and
    // must not fragment the single-bundle key space. The bundle list
    // is mixed resolved so "empty = all" and the explicit full list
    // hash identically (they compile identically).
    fp.mix(options.portfolio.enabled);
    if (options.portfolio.enabled) {
        // 0 fills the slot the removed tie-break knob (always 0) used
        // to mix, so existing disk caches stay valid.
        fp.mix(static_cast<std::uint64_t>(options.portfolio.deadlineMs))
            .mix(0);
        const std::vector<MapperKind> bundles =
            resolvedPortfolioBundles(options.portfolio);
        fp.mix(static_cast<std::uint64_t>(bundles.size()));
        for (MapperKind k : bundles)
            fp.mix(static_cast<int>(k));
    }
    return fp.value();
}

std::uint64_t
machineKey(const Topology &topo, const Calibration &cal)
{
    Fingerprint fp;
    fp.mix(fingerprintTopology(topo)).mix(fingerprintCalibration(cal));
    return fp.value();
}

} // namespace qc::service
