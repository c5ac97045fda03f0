/**
 * @file
 * Tier-1 coverage for th_lint's schema-drift pass (DESIGN.md §14):
 *
 *  - the committed tools/th_lint/schema.lock must match fingerprints
 *    regenerated from the live sources (so an unintentional codec
 *    change fails ctest, not just the lint CI job);
 *  - perturbation tests prove the teeth: reordering two codec field
 *    writes, or changing a serialized member's declared type, without
 *    bumping the guard constant — kWireSchemaVersion for SimRequest,
 *    kStoreSchemaVersion for CoreResult — produces a finding that
 *    names both the struct and the constant, while the same edit
 *    *with* a bump asks only for a lock regeneration.
 *
 * The tests drive the linter in-process through th_lint_lib rather
 * than shelling out, so failures carry the full diagnostic text.
 */

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "lint.h"

namespace fs = std::filesystem;

namespace {

#ifndef TH_REPO_ROOT
#error "TH_REPO_ROOT must be defined by the build"
#endif

std::string
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::in | std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const fs::path &p, const std::string &text)
{
    fs::create_directories(p.parent_path());
    std::ofstream out(p, std::ios::out | std::ios::trunc |
                             std::ios::binary);
    out << text;
}

/** Findings of the given check, formatted, one per line. */
std::string
findingsOf(const std::vector<th_lint::Diagnostic> &diags,
           const std::string &check)
{
    std::string out;
    for (const auto &d : diags)
        if (d.check == check)
            out += th_lint::formatDiagnostic(d) + "\n";
    return out;
}

/**
 * A scratch repo holding copies of the real SimRequest and CoreResult
 * sources (with the constant guarding CoreResult's encoding). Uses
 * fixture mode so the passes whose rule targets are absent from the
 * mini tree stay silent, exactly like the --self-test fixtures.
 */
class SchemaPerturbation : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        root_ = fs::path(testing::TempDir()) /
                ("schema_lock_" +
                 std::to_string(::getpid()) + "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name());
        fs::remove_all(root_);
        const fs::path repo = TH_REPO_ROOT;
        for (const char *rel :
             {"src/io/request.h", "src/io/serialize.cpp",
              "src/core/pipeline.h", "src/store/artifact_store.h"})
            writeFile(root_ / rel, readFile(repo / rel));

        opts_.root = root_.string();
        opts_.fixtureMode = true;
        std::string err;
        ASSERT_TRUE(th_lint::writeSchemaLock(opts_, err)) << err;
        // Sanity: the untouched copy is drift-free.
        ASSERT_EQ("", findingsOf(th_lint::runChecks(opts_),
                                 "schema-drift"));
    }

    void TearDown() override
    {
        std::error_code ec;
        fs::remove_all(root_, ec);
    }

    /** Swap the encode lines for req.insts / req.warmup — a wire
     *  format change that field-set coverage cannot see. */
    void reorderCodecFields()
    {
        const fs::path p = root_ / "src/io/serialize.cpp";
        std::string text = readFile(p);
        const std::string a = "    enc.u64(req.insts);\n";
        const std::string b = "    enc.u64(req.warmup);\n";
        const std::size_t pos = text.find(a + b);
        ASSERT_NE(pos, std::string::npos)
            << "encodeSimRequest no longer writes insts then warmup "
               "back-to-back; update this test's perturbation";
        text.replace(pos, a.size() + b.size(), b + a);
        writeFile(p, text);
    }

    /** Swap the encode calls for result.perf / result.activity — the
     *  same field set in a new order, which only the fingerprint sees. */
    void reorderCoreResultFields()
    {
        const fs::path p = root_ / "src/io/serialize.cpp";
        std::string text = readFile(p);
        const std::string a = "    encodePerfStats(enc, result.perf);\n";
        const std::string b =
            "    encodeActivityStats(enc, result.activity);\n";
        const std::size_t pos = text.find(a + b);
        ASSERT_NE(pos, std::string::npos)
            << "encodeCoreResult no longer writes perf then activity "
               "back-to-back; update this test's perturbation";
        text.replace(pos, a.size() + b.size(), b + a);
        writeFile(p, text);
    }

    /** Widen SimRequest::deadlineMs to 64 bits — the same field name
     *  and codec references under a new declared type. */
    void widenDeadlineMs()
    {
        const fs::path p = root_ / "src/io/request.h";
        std::string text = readFile(p);
        const std::string from = "std::uint32_t deadlineMs = 0;";
        const std::size_t pos = text.find(from);
        ASSERT_NE(pos, std::string::npos)
            << "SimRequest no longer declares a 32-bit deadlineMs; "
               "update this test's perturbation";
        text.replace(pos, from.size(), "std::uint64_t deadlineMs = 0;");
        writeFile(p, text);
    }

    void bumpWireSchemaVersion()
    {
        const fs::path p = root_ / "src/io/request.h";
        std::string text = readFile(p);
        const std::string pat = "kWireSchemaVersion = ";
        const std::size_t pos = text.find(pat);
        ASSERT_NE(pos, std::string::npos);
        std::size_t d = pos + pat.size();
        std::string digits;
        while (d < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[d])) != 0)
            digits += text[d++];
        ASSERT_FALSE(digits.empty());
        const int bumped = std::stoi(digits) + 1;
        text.replace(pos + pat.size(), digits.size(),
                     std::to_string(bumped));
        writeFile(p, text);
    }

    fs::path root_;
    th_lint::Options opts_;
};

} // namespace

/** The committed lock must match fingerprints regenerated from the
 *  live sources. On failure: either revert the codec change or bump
 *  the schema constant and run `th_lint --root . --write-schema-lock`. */
TEST(SchemaLock, CommittedLockMatchesLiveSources)
{
    th_lint::Options opts;
    opts.root = TH_REPO_ROOT;
    ASSERT_TRUE(fs::exists(fs::path(TH_REPO_ROOT) /
                           "tools/th_lint/schema.lock"))
        << "tools/th_lint/schema.lock is not committed";
    const auto diags = th_lint::runChecks(opts);
    EXPECT_EQ("", findingsOf(diags, "schema-drift"));
}

TEST_F(SchemaPerturbation, ReorderWithoutBumpIsAnError)
{
    reorderCodecFields();
    reorderCoreResultFields();
    const auto diags = th_lint::runChecks(opts_);
    const std::string drift = findingsOf(diags, "schema-drift");
    EXPECT_NE(drift.find("SimRequest"), std::string::npos) << drift;
    EXPECT_NE(drift.find("without a bump of kWireSchemaVersion"),
              std::string::npos)
        << drift;
    // CoreResult's only guard is the constant every store entry
    // carries in its header; no other constant may excuse the drift.
    EXPECT_NE(drift.find("CoreResult"), std::string::npos) << drift;
    EXPECT_NE(drift.find("without a bump of kStoreSchemaVersion;"),
              std::string::npos)
        << drift;
}

TEST_F(SchemaPerturbation, TypeChangeWithoutBumpIsAnError)
{
    widenDeadlineMs();
    const auto diags = th_lint::runChecks(opts_);
    const std::string drift = findingsOf(diags, "schema-drift");
    EXPECT_NE(drift.find("SimRequest"), std::string::npos) << drift;
    EXPECT_NE(drift.find("without a bump of kWireSchemaVersion"),
              std::string::npos)
        << drift;
}

TEST_F(SchemaPerturbation, ReorderWithBumpAsksForRegeneration)
{
    reorderCodecFields();
    bumpWireSchemaVersion();
    const auto diags = th_lint::runChecks(opts_);
    const std::string drift = findingsOf(diags, "schema-drift");
    EXPECT_EQ(drift.find("without a bump"), std::string::npos) << drift;
    EXPECT_NE(drift.find("regenerate"), std::string::npos) << drift;
    // And regeneration settles it.
    std::string err;
    ASSERT_TRUE(th_lint::writeSchemaLock(opts_, err)) << err;
    EXPECT_EQ("", findingsOf(th_lint::runChecks(opts_),
                             "schema-drift"));
}
