/**
 * @file
 * Golden simulator corpus: re-simulates a fixed set of tiny cells and
 * requires every serialized RunResult to match
 * `tests/golden/sim_results.txt` byte for byte.
 *
 * The cells cover machine shapes the repository benchmark does not:
 * 24 and 48 SMs, the 64-SM / 64-vault 3D-stacked machine (a 64-input
 * crossbar), an SM with 96 warp slots and a channel with 128 banks
 * (more than one 64-bit word of warp or bank bookkeeping), every
 * `layout:` preset, synthetic specs, the six paper schemes and all 16
 * Table II workloads. Any change to the simulator's output fails
 * here.
 *
 * Regenerating the file is an explicit step, taken only after a
 * deliberate model change:
 *
 *     ./build/golden_sim_test --regen
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gpu/sim_config.hh"
#include "harness/experiment.hh"
#include "harness/result_cache.hh"
#include "mapping/layout_registry.hh"
#include "workloads/workload.hh"

using namespace valley;

namespace {

const char *const kGoldenPath =
    VALLEY_SOURCE_DIR "/tests/golden/sim_results.txt";

struct GoldenCell
{
    std::string id; ///< unique label; the first field of a line
    SimConfig config;
    std::string mapper;
    std::string workload;
    double scale;
};

std::vector<GoldenCell>
goldenCells()
{
    std::vector<GoldenCell> cells;
    const SimConfig base = SimConfig::paperBaseline();

    for (unsigned sms : {24u, 48u})
        for (const char *m : {"map:base", "map:pae"})
            cells.push_back({"sms" + std::to_string(sms) + "/" + m,
                             SimConfig::withSms(sms), m, "MT", 0.05});

    for (const char *m : {"map:base", "map:pae"})
        cells.push_back({std::string("stacked3d/") + m,
                         SimConfig::stacked3d(), m, "LU", 0.02});

    for (const auto *org : mapping::layoutPresets()) {
        SimConfig cfg = base;
        cfg.layout = mapping::makeLayout(org->key);
        cells.push_back({"layout:" + org->key, cfg, "map:pae", "GS",
                         0.05});
    }

    for (const char *w : {"synth:stencil3d", "synth:csr_gather",
                          "synth:attention"})
        cells.push_back({w, base, "map:base", w, 0.05});

    for (const char *m : {"map:base", "map:pm", "map:rmp", "map:pae",
                          "map:fae", "map:all"})
        cells.push_back({std::string("scheme/") + m, base, m, "NW",
                         0.05});

    for (const std::string &w : workloads::allSet())
        cells.push_back({"table2/" + w, base, "map:base", w, 0.02});

    // 96 warp slots per SM, all of them filled (64 MT thread blocks
    // of 8 warps over 4 SMs): the warp bookkeeping spans two words.
    SimConfig wide = base;
    wide.numSms = 4;
    wide.maxWarpsPerSm = 96;
    wide.maxThreadsPerSm = 96 * 32;
    wide.maxTbsPerSm = 16;
    for (const char *m : {"map:base", "map:pae"})
        cells.push_back({std::string("warps96/") + m, wide, m, "MT",
                         0.05});

    // 128 banks per channel: the GDDR5 fields with a 7-bit bank field
    // (3 bits taken from the row). Bank bookkeeping spans two words.
    using K = mapping::FieldKind;
    SimConfig deep = base;
    deep.layout = mapping::layoutFromOrganization(
        {"banks128", "GDDR5, 128 banks", "",
         {{K::Block, 6}, {K::ColLo, 2}, {K::Channel, 2}, {K::Bank, 7},
          {K::ColHi, 4}, {K::Row, 9}}});
    for (const char *m : {"map:base", "map:pae"})
        cells.push_back({std::string("banks128/") + m, deep, m, "MT",
                         0.05});
    return cells;
}

std::string
goldenLine(const GoldenCell &c)
{
    const RunResult r =
        harness::runOne(c.config, c.mapper, c.workload, c.scale, 1);
    return c.id + "\t" + harness::serializeResult(r);
}

bool
regenRequested()
{
    for (const std::string &a : ::testing::internal::GetArgvs())
        if (a == "--regen")
            return true;
    return false;
}

} // namespace

TEST(GoldenSim, CorpusMatchesByteForByte)
{
    const std::vector<GoldenCell> cells = goldenCells();

    if (regenRequested()) {
        std::ofstream out(kGoldenPath, std::ios::trunc);
        ASSERT_TRUE(out) << kGoldenPath;
        for (const GoldenCell &c : cells)
            out << goldenLine(c) << '\n';
        GTEST_SKIP() << "regenerated " << kGoldenPath;
    }

    std::ifstream in(kGoldenPath);
    ASSERT_TRUE(in) << "missing " << kGoldenPath;
    std::vector<std::string> expected;
    for (std::string line; std::getline(in, line);)
        expected.push_back(line);
    ASSERT_EQ(expected.size(), cells.size())
        << "corpus and cell list disagree; regenerate deliberately";

    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(goldenLine(cells[i]), expected[i]) << cells[i].id;
}
