/**
 * @file
 * Grid-vs-refactor equivalence anchor for the topology abstraction.
 *
 * The goldens below were captured from the last pre-refactor build
 * (hard-coded grid machinery: Rect-based regions, per-cell ledger
 * buckets, coordinate SMT encoding) on the canonical seed-20190131
 * IBMQ16 day-0 machine: makespan, swap count, and an FNV-1a hash of
 * the full timed op stream for the Table 2 set across the seven
 * paper bundles. The refactored stack must reproduce every entry
 * exactly — any divergence means the qubit-footprint generalization
 * changed behavior on grids, which is the one thing it must never do.
 *
 * Each row also pins the exact predicted success (hex-float), and
 * twelve Sabre rows pin the SABRE bundle the same way. Those values
 * were captured later, from the pass pipeline as it stood before the
 * monolithic Mapper classes were deleted, so together with the
 * verifier these goldens are the oracle every bundle is held to.
 *
 * The 36 SMT rows also pin the objective Z3 proves optimal (the
 * makespan in timeslots for T-SMT/T-SMT*, the Eq. 12 integer cost for
 * R-SMT*). Only that value is independent of how the search runs:
 * when the search changes, Z3 may return another optimal model, and
 * an SMT row's op stream may be re-captured only if its objective
 * stays the same. Every solve must prove optimality; an interrupted
 * one fails the row instead of being skipped.
 */

#include <gtest/gtest.h>

#include <map>

#include "support/fingerprint.hpp"
#include "test_util.hpp"

namespace qc {
namespace {

using test::env;

std::uint64_t
opStreamHash(const Schedule &s)
{
    Fingerprint fp;
    fp.mix(s.numHwQubits).mix(static_cast<std::int64_t>(s.makespan));
    fp.mix(static_cast<std::uint64_t>(s.ops.size()));
    for (const auto &op : s.ops) {
        fp.mix(static_cast<int>(op.gate.op))
            .mix(op.gate.q0)
            .mix(op.gate.q1)
            .mix(op.gate.cbit)
            .mix(static_cast<std::int64_t>(op.start))
            .mix(static_cast<std::int64_t>(op.duration))
            .mix(op.progGate)
            .mix(op.isRouteSwap);
    }
    return fp.value();
}

struct Golden
{
    const char *mapper;
    const char *bench;
    Timeslot makespan;
    int swaps;
    std::uint64_t opsHash;
    double predictedSuccess;
    std::int64_t objective = -1; ///< SMT rows only: proven objective
};

// Captured pre-refactor (seed 20190131, day 0, smtTimeoutMs 30000);
// 20 T-SMT/T-SMT* rows re-captured, with unchanged objectives, when
// the duration solves gained the placement-aware makespan bound.
const Golden kGoldens[] = {
    {"Qiskit", "BV4", 183, 6, 0x8a583ee197c287b3ull,
     0x1.e8f5dae705ffep-2},
    {"Qiskit", "BV6", 219, 6, 0x909f552f2d69ff58ull,
     0x1.95c27f277899cp-2},
    {"Qiskit", "BV8", 225, 6, 0x612ea8e485ab9c2bull,
     0x1.3e008de60044ep-2},
    {"Qiskit", "HS2", 35, 0, 0xeff3dcd1152523f3ull,
     0x1.c5002c1231f05p-1},
    {"Qiskit", "HS4", 35, 0, 0x4f0b414f5a1fd086ull,
     0x1.6c0acf2ccf2c1p-1},
    {"Qiskit", "HS6", 35, 0, 0x90bf0f0ef6bcfb93ull,
     0x1.27fbf0a77108fp-1},
    {"Qiskit", "Toffoli", 161, 4, 0x90c3eaa88aafa434ull,
     0x1.1da6556ad8ae7p-1},
    {"Qiskit", "Fredkin", 178, 4, 0x5771015c7095d40cull,
     0x1.f592ee92b3091p-2},
    {"Qiskit", "Or", 161, 4, 0x5370ec70643c6043ull,
     0x1.1da6556ad8ae7p-1},
    {"Qiskit", "Peres", 153, 4, 0xfcbdf162e0b66e84ull,
     0x1.2283c3aac879dp-1},
    {"Qiskit", "QFT", 59, 0, 0x33abbc93d4cf7916ull,
     0x1.ae9f2d086ca36p-1},
    {"Qiskit", "Adder", 412, 10, 0x659afc7f4624e639ull,
     0x1.e9810a6273a49p-3},
    {"T-SMT", "BV4", 41, 0, 0xdccdf22bc9b217aeull,
     0x1.8f71bc6b81be8p-1, 45},
    {"T-SMT", "BV6", 41, 0, 0x4f1a9c42091f2211ull,
     0x1.585340abe4c31p-1, 45},
    {"T-SMT", "BV8", 41, 0, 0x266324a38d4e7402ull,
     0x1.3f8ed37d6a98bp-1, 45},
    {"T-SMT", "HS2", 35, 0, 0xeff3dcd1152523f3ull,
     0x1.c5002c1231f05p-1, 39},
    {"T-SMT", "HS4", 35, 0, 0x4f0b414f5a1fd086ull,
     0x1.6c0acf2ccf2c1p-1, 39},
    {"T-SMT", "HS6", 35, 0, 0x90bf0f0ef6bcfb93ull,
     0x1.27fbf0a77108fp-1, 39},
    {"T-SMT", "Toffoli", 161, 4, 0x90c3eaa88aafa434ull,
     0x1.1da6556ad8ae7p-1, 197},
    {"T-SMT", "Fredkin", 180, 4, 0x165fc78b2a018917ull,
     0x1.c77c52e55420fp-2, 218},
    {"T-SMT", "Or", 161, 4, 0x5370ec70643c6043ull,
     0x1.1da6556ad8ae7p-1, 197},
    {"T-SMT", "Peres", 121, 2, 0xa03064ea492b56d7ull,
     0x1.6ac04009e5bc2p-1, 127},
    {"T-SMT", "QFT", 59, 0, 0x33abbc93d4cf7916ull,
     0x1.ae9f2d086ca36p-1, 69},
    {"T-SMT", "Adder", 171, 0, 0x7eb3cc952aa55698ull,
     0x1.ee734743476ep-2, 197},
    {"T-SMT*", "BV4", 41, 0, 0xe2a9decc1f0ad5eeull,
     0x1.5c9599874460fp-1, 41},
    {"T-SMT*", "BV6", 41, 0, 0x826b4502812da017ull,
     0x1.3f02c302e7242p-1, 41},
    {"T-SMT*", "BV8", 41, 0, 0x5eb5247daa756186ull,
     0x1.13dac1e20ac16p-1, 41},
    {"T-SMT*", "HS2", 33, 0, 0x63271a1fd192bae5ull,
     0x1.9eb90d7357473p-1, 33},
    {"T-SMT*", "HS4", 35, 0, 0x6e9d620fdb074e12ull,
     0x1.6eeede1930d54p-1, 35},
    {"T-SMT*", "HS6", 35, 0, 0x8e95611f99dc2907ull,
     0x1.26e050fd5ff42p-1, 35},
    {"T-SMT*", "Toffoli", 147, 4, 0xb24ecdf62728ecf8ull,
     0x1.d6c07f27e39f9p-2, 147},
    {"T-SMT*", "Fredkin", 164, 4, 0x24ffbd1382a4e40eull,
     0x1.954bbe548141ap-2, 164},
    {"T-SMT*", "Or", 147, 4, 0x406b977c8a00c4caull,
     0x1.d6c07f27e39f9p-2, 147},
    {"T-SMT*", "Peres", 99, 2, 0x8fb120cdc599b6e9ull,
     0x1.1dbabc39eda29p-1, 97},
    {"T-SMT*", "QFT", 54, 0, 0x7fa70efbd5d231ecull,
     0x1.70314fed48e0bp-1, 54},
    {"T-SMT*", "Adder", 168, 0, 0x909bfffbc5d97fc0ull,
     0x1.ac7a21e9c97ebp-3, 168},
    {"R-SMT*", "BV4", 108, 2, 0x6196e4803eddb1b1ull,
     0x1.9d297e84f245dp-1, 10724000},
    {"R-SMT*", "BV6", 108, 2, 0xc5a1024d2c96e2a8ull,
     0x1.8263ce5ab6b7fp-1, 14073500},
    {"R-SMT*", "BV8", 96, 2, 0x9cd64ab13318eeaull,
     0x1.611bc5d2c7451p-1, 18577000},
    {"R-SMT*", "HS2", 39, 0, 0xf9e46ebc2b98833bull,
     0x1.d114c6cc0eedbp-1, 4805000},
    {"R-SMT*", "HS4", 39, 0, 0x7bd66607f719a52eull,
     0x1.96138ed5b749dp-1, 11589000},
    {"R-SMT*", "HS6", 43, 0, 0xebbe78edd7d6a46full,
     0x1.5ba3d7295a456p-1, 19358000},
    {"R-SMT*", "Toffoli", 189, 4, 0xe4c8d4f96981663dull,
     0x1.8624bb6916652p-1, 13590500},
    {"R-SMT*", "Fredkin", 208, 4, 0xde39af811e3860b2ull,
     0x1.792faa7b78329p-1, 15279500},
    {"R-SMT*", "Or", 189, 4, 0x1f777df7b1a11669ull,
     0x1.8624bb6916652p-1, 13590500},
    {"R-SMT*", "Peres", 123, 2, 0x40accbb7775f802ull,
     0x1.9b6c1ab9b45f8p-1, 10935000},
    {"R-SMT*", "QFT", 69, 0, 0xed31c56802909826ull,
     0x1.c089d12e5e866p-1, 6615500},
    {"R-SMT*", "Adder", 470, 10, 0xbda8a3caff29bb99ull,
     0x1.06827757013ffp-1, 33403000},
    {"GreedyV*", "BV4", 96, 2, 0xf7f04ca2fb2bba1ull,
     0x1.98acc350659fap-1},
    {"GreedyV*", "BV6", 96, 2, 0x80f210f5ddb7ed18ull,
     0x1.7e3182bc50128p-1},
    {"GreedyV*", "BV8", 96, 2, 0xe21c6fcf5f7bbe3aull,
     0x1.5cc357b7b085ap-1},
    {"GreedyV*", "HS2", 39, 0, 0xf9e46ebc2b98833bull,
     0x1.d114c6cc0eedbp-1},
    {"GreedyV*", "HS4", 39, 0, 0xb8a726349e7462a2ull,
     0x1.74ff34367f8ep-1},
    {"GreedyV*", "HS6", 45, 0, 0xee3f4f0945bd199ull,
     0x1.2868385232b89p-1},
    {"GreedyV*", "Toffoli", 189, 4, 0xe4c8d4f96981663dull,
     0x1.8624bb6916652p-1},
    {"GreedyV*", "Fredkin", 192, 4, 0xba69509d2c396ca5ull,
     0x1.759236f80858ep-1},
    {"GreedyV*", "Or", 189, 4, 0x1f777df7b1a11669ull,
     0x1.8624bb6916652p-1},
    {"GreedyV*", "Peres", 161, 4, 0x4a9dddfcb65dc620ull,
     0x1.8537fe6624692p-1},
    {"GreedyV*", "QFT", 69, 0, 0xed31c56802909826ull,
     0x1.c089d12e5e866p-1},
    {"GreedyV*", "Adder", 441, 10, 0xb5e8419e95104187ull,
     0x1.ffda4ef28e579p-2},
    {"GreedyE*", "BV4", 109, 2, 0x1453786a0af77340ull,
     0x1.7675797558825p-1},
    {"GreedyE*", "BV6", 109, 2, 0x8d5c0ae1a446d0a2ull,
     0x1.5eff9139916b9p-1},
    {"GreedyE*", "BV8", 109, 2, 0xa1acc76a6a6d50b8ull,
     0x1.42d4044af89fdp-1},
    {"GreedyE*", "HS2", 39, 0, 0x8cd9554df10de8bull,
     0x1.caf6d960da524p-1},
    {"GreedyE*", "HS4", 39, 0, 0x7bd66607f719a52eull,
     0x1.96138ed5b749dp-1},
    {"GreedyE*", "HS6", 43, 0, 0xebbe78edd7d6a46full,
     0x1.5ba3d7295a456p-1},
    {"GreedyE*", "Toffoli", 197, 4, 0x1730091502f7d2feull,
     0x1.5dd0a66a4071ep-1},
    {"GreedyE*", "Fredkin", 218, 4, 0x9bb13a223dca4b7full,
     0x1.60cbf03c3a5ebp-1},
    {"GreedyE*", "Or", 198, 4, 0xeae045739c345c60ull,
     0x1.5dd0a66a4071ep-1},
    {"GreedyE*", "Peres", 187, 4, 0xa0f6a1107ff936aull,
     0x1.79f14403811cfp-1},
    {"GreedyE*", "QFT", 69, 0, 0x5aeadc05e69f21d6ull,
     0x1.a57e83667ebb5p-1},
    {"GreedyE*", "Adder", 437, 10, 0x41ab87b58a832f46ull,
     0x1.e766cf87b8ff7p-2},
    {"GreedyE*+track", "BV4", 79, 1, 0xc05e83039e288e04ull,
     0x1.7675797558825p-1},
    {"GreedyE*+track", "BV6", 79, 1, 0xaf60767021f6d7caull,
     0x1.5eff9139916b9p-1},
    {"GreedyE*+track", "BV8", 79, 1, 0x221109bd234432c4ull,
     0x1.42d4044af89fdp-1},
    {"GreedyE*+track", "HS2", 39, 0, 0x8cd9554df10de8bull,
     0x1.caf6d960da524p-1},
    {"GreedyE*+track", "HS4", 39, 0, 0xa159e83ce08022deull,
     0x1.96138ed5b749dp-1},
    {"GreedyE*+track", "HS6", 43, 0, 0x9af9766f98db076full,
     0x1.5ba3d7295a456p-1},
    {"GreedyE*+track", "Toffoli", 198, 4, 0xfe3f0c8e755c207eull,
     0x1.27074a774fb36p-1},
    {"GreedyE*+track", "Fredkin", 219, 4, 0x40935e34955d5daeull,
     0x1.3d9c2285d0eacp-1},
    {"GreedyE*+track", "Or", 199, 4, 0xc94c71c69c84258ull,
     0x1.27074a774fb36p-1},
    {"GreedyE*+track", "Peres", 188, 4, 0xf756c0d8ae759791ull,
     0x1.5f88b429a7931p-1},
    {"GreedyE*+track", "QFT", 69, 0, 0xd3b906b0a79dd9d6ull,
     0x1.a57e83667ebb5p-1},
    {"GreedyE*+track", "Adder", 245, 2, 0x2e031822ba5a71a4ull,
     0x1.1bb43bfa88b11p-1},
    {"Sabre", "BV4", 79, 1, 0xc05e83039e288e04ull,
     0x1.7675797558825p-1},
    {"Sabre", "BV6", 79, 1, 0xaf60767021f6d7caull,
     0x1.5eff9139916b9p-1},
    {"Sabre", "BV8", 79, 1, 0x221109bd234432c4ull,
     0x1.42d4044af89fdp-1},
    {"Sabre", "HS2", 39, 0, 0x8cd9554df10de8bull,
     0x1.caf6d960da524p-1},
    {"Sabre", "HS4", 39, 0, 0xa159e83ce08022deull,
     0x1.96138ed5b749dp-1},
    {"Sabre", "HS6", 43, 0, 0x9af9766f98db076full,
     0x1.5ba3d7295a456p-1},
    {"Sabre", "Toffoli", 109, 1, 0x6828ac155338600aull,
     0x1.832dd205dd415p-1},
    {"Sabre", "Fredkin", 160, 2, 0x26dc32d1ca5aab43ull,
     0x1.60cbf03c3a5eap-1},
    {"Sabre", "Or", 109, 1, 0x96ba69ede3d6796cull,
     0x1.832dd205dd415p-1},
    {"Sabre", "Peres", 99, 1, 0xec20cc8f0e6d89d8ull,
     0x1.818a1802f9c19p-1},
    {"Sabre", "QFT", 69, 0, 0xd3b906b0a79dd9d6ull,
     0x1.a57e83667ebb5p-1},
    {"Sabre", "Adder", 245, 2, 0x2e031822ba5a71a4ull,
     0x1.1bb43bfa88b11p-1},
};

bool
isSmtMapper(const std::string &name)
{
    return name.find("SMT") != std::string::npos;
}

/** The objective the placement stage note reports ("objective N"). */
std::int64_t
solverObjective(const CompiledProgram &p)
{
    for (const StageTrace &t : p.stageTraces) {
        const size_t at = t.note.find("objective ");
        if (t.stage == "placement" && at != std::string::npos)
            return std::stoll(t.note.substr(at + 10));
    }
    return -1;
}

TEST(GridIdentity, Table2AllBundlesMatchPreRefactorGoldens)
{
    auto machine =
        std::make_shared<const Machine>(env().machineForDay(0));

    std::map<std::string, Pipeline> pipelines;
    for (MapperKind kind : kAllMapperKinds) {
        CompilerOptions opts;
        opts.mapper = kind;
        opts.smtTimeoutMs = 30'000;
        pipelines.emplace(mapperKindName(kind),
                          standardPipeline(machine, opts));
    }

    for (const Golden &g : kGoldens) {
        SCOPED_TRACE(std::string(g.mapper) + "/" + g.bench);
        PipelineResult r = pipelines.at(g.mapper).run(
            benchmarkByName(g.bench).circuit);
        ASSERT_TRUE(r.ok()) << r.status.message;
        if (isSmtMapper(g.mapper)) {
            EXPECT_TRUE(r.program.solverOptimal) << r.program.solverStatus;
            EXPECT_EQ(solverObjective(r.program), g.objective);
        }
        EXPECT_EQ(r.program.duration, g.makespan);
        EXPECT_EQ(r.program.swapCount, g.swaps);
        EXPECT_EQ(opStreamHash(r.program.schedule), g.opsHash);
        EXPECT_EQ(r.program.predictedSuccess, g.predictedSuccess);
    }
}

} // namespace
} // namespace qc
