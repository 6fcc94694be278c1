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
 * SMT entries are only comparable when the solve proves optimality
 * (a wall-clock-interrupted Z3 search is not deterministic); all 36
 * SMT goldens were captured optimal, and the floor below keeps the
 * skip path from silently swallowing the test if that degrades.
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
};

// Captured pre-refactor (seed 20190131, day 0, smtTimeoutMs 30000).
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
    {"T-SMT", "BV4", 45, 0, 0xf67ed2bdc77cfa7cull,
     0x1.708352653a9b9p-1},
    {"T-SMT", "BV6", 45, 0, 0xabec5df2094f97caull,
     0x1.52b94c0612e96p-1},
    {"T-SMT", "BV8", 44, 0, 0x60560c29ffe7d329ull,
     0x1.31e8b64e84235p-1},
    {"T-SMT", "HS2", 35, 0, 0x87f9d390da932473ull,
     0x1.9b749bb354d61p-1},
    {"T-SMT", "HS4", 41, 0, 0xb31a454b8c389734ull,
     0x1.7bb637b68fdb1p-1},
    {"T-SMT", "HS6", 41, 0, 0x38509c7f7bf29f8dull,
     0x1.1197f84bcd233p-1},
    {"T-SMT", "Toffoli", 197, 4, 0x6fa6953ff8271085ull,
     0x1.adecbf72c46ddp-2},
    {"T-SMT", "Fredkin", 194, 4, 0x5cff489fff340875ull,
     0x1.5676eea1538b4p-1},
    {"T-SMT", "Or", 229, 4, 0x1b50dd827497a619ull,
     0x1.df359c1dac5adp-2},
    {"T-SMT", "Peres", 121, 2, 0x7eb19b9153bd85d4ull,
     0x1.d6dcba0032da2p-2},
    {"T-SMT", "QFT", 79, 0, 0x7025b5c20321aeeeull,
     0x1.a22bbfce11ca2p-1},
    {"T-SMT", "Adder", 197, 0, 0xc7ab4cf6b88c99b2ull,
     0x1.752008755019dp-2},
    {"T-SMT*", "BV4", 41, 0, 0x9b109c9a89802c2aull,
     0x1.5c9599874460fp-1},
    {"T-SMT*", "BV6", 41, 0, 0xe83ef5b5d842d44ull,
     0x1.6751019b008bbp-1},
    {"T-SMT*", "BV8", 41, 0, 0xc3fad7b06ae2146cull,
     0x1.3073c4160bff3p-1},
    {"T-SMT*", "HS2", 33, 0, 0x63271a1fd192bae5ull,
     0x1.9eb90d7357473p-1},
    {"T-SMT*", "HS4", 35, 0, 0xd0a6fdd5bdab2e96ull,
     0x1.43ba7e0d8e06dp-1},
    {"T-SMT*", "HS6", 35, 0, 0x36fb276ffdde8633ull,
     0x1.29d97f9f244cap-1},
    {"T-SMT*", "Toffoli", 160, 4, 0x2ab5e39c20652f3eull,
     0x1.d6c07f27e39f9p-2},
    {"T-SMT*", "Fredkin", 164, 4, 0x24ffbd1382a4e40eull,
     0x1.954bbe548141ap-2},
    {"T-SMT*", "Or", 147, 4, 0x406b977c8a00c4caull,
     0x1.d6c07f27e39f9p-2},
    {"T-SMT*", "Peres", 99, 2, 0x8fb120cdc599b6e9ull,
     0x1.1dbabc39eda29p-1},
    {"T-SMT*", "QFT", 54, 0, 0x53d7a2766ed8cdccull,
     0x1.70314fed48e0bp-1},
    {"T-SMT*", "Adder", 168, 0, 0x5b4294483d9deaa7ull,
     0x1.ac7a21e9c97eap-3},
    {"R-SMT*", "BV4", 108, 2, 0x6196e4803eddb1b1ull,
     0x1.9d297e84f245dp-1},
    {"R-SMT*", "BV6", 108, 2, 0xc5a1024d2c96e2a8ull,
     0x1.8263ce5ab6b7fp-1},
    {"R-SMT*", "BV8", 96, 2, 0x9cd64ab13318eeaull,
     0x1.611bc5d2c7451p-1},
    {"R-SMT*", "HS2", 39, 0, 0xf9e46ebc2b98833bull,
     0x1.d114c6cc0eedbp-1},
    {"R-SMT*", "HS4", 39, 0, 0x7bd66607f719a52eull,
     0x1.96138ed5b749dp-1},
    {"R-SMT*", "HS6", 43, 0, 0xebbe78edd7d6a46full,
     0x1.5ba3d7295a456p-1},
    {"R-SMT*", "Toffoli", 189, 4, 0xe4c8d4f96981663dull,
     0x1.8624bb6916652p-1},
    {"R-SMT*", "Fredkin", 208, 4, 0xde39af811e3860b2ull,
     0x1.792faa7b78329p-1},
    {"R-SMT*", "Or", 189, 4, 0x1f777df7b1a11669ull,
     0x1.8624bb6916652p-1},
    {"R-SMT*", "Peres", 123, 2, 0x40accbb7775f802ull,
     0x1.9b6c1ab9b45f8p-1},
    {"R-SMT*", "QFT", 69, 0, 0xed31c56802909826ull,
     0x1.c089d12e5e866p-1},
    {"R-SMT*", "Adder", 470, 10, 0xbda8a3caff29bb99ull,
     0x1.06827757013ffp-1},
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

    int strict = 0, skipped = 0;
    for (const Golden &g : kGoldens) {
        SCOPED_TRACE(std::string(g.mapper) + "/" + g.bench);
        PipelineResult r = pipelines.at(g.mapper).run(
            benchmarkByName(g.bench).circuit);
        ASSERT_TRUE(r.ok()) << r.status.message;
        if (isSmtMapper(g.mapper) && !r.program.solverOptimal) {
            ++skipped; // interrupted solve: not comparable
            continue;
        }
        EXPECT_EQ(r.program.duration, g.makespan);
        EXPECT_EQ(r.program.swapCount, g.swaps);
        EXPECT_EQ(opStreamHash(r.program.schedule), g.opsHash);
        EXPECT_EQ(r.program.predictedSuccess, g.predictedSuccess);
        ++strict;
    }
    // All 96 goldens were captured optimal; allow a handful of
    // timeout skips on slow runners but never a silent wash-out.
    EXPECT_GE(strict, static_cast<int>(std::size(kGoldens)) - 6)
        << "too many SMT solves timed out to anchor identity";
}

} // namespace
} // namespace qc
