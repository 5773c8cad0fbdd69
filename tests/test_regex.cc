/**
 * @file
 * Tests for the regex parser, NFA, DFA and rule sets. The DFA is
 * cross-validated against the NFA reference on random inputs.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "alg/regex/dfa.hh"
#include "alg/regex/nfa.hh"
#include "alg/regex/parser.hh"
#include "alg/regex/ruleset.hh"
#include "sim/random.hh"

using namespace snic::alg;
using namespace snic::alg::regex;
using snic::sim::Random;

namespace {

bool
nfaMatches(const std::string &pattern, const std::string &text)
{
    WorkCounters work;
    const Nfa nfa = Nfa::compile(pattern);
    return nfa.scan(reinterpret_cast<const std::uint8_t *>(text.data()),
                    text.size(), work)
        .count(0) > 0;
}

bool
dfaMatches(const std::string &pattern, const std::string &text)
{
    WorkCounters work;
    const Nfa nfa = Nfa::compile(pattern);
    const Dfa dfa(nfa);
    return dfa.scan(reinterpret_cast<const std::uint8_t *>(text.data()),
                    text.size(), work)
        .count(0) > 0;
}

} // anonymous namespace

TEST(Parser, RejectsMalformedPatterns)
{
    for (const char *bad : {"(", "a)", "[abc", "a{2,1}", "*a", "a{x}",
                            "\\x1", "a|*"}) {
        EXPECT_THROW(Parser::parse(bad), Parser::ParseError) << bad;
    }
}

TEST(Parser, AcceptsStudyPatterns)
{
    for (RuleSetId id : {RuleSetId::FileImage, RuleSetId::FileFlash,
                         RuleSetId::FileExecutable}) {
        for (const auto &p : makeRuleSet(id).patterns)
            EXPECT_NO_THROW(Parser::parse(p)) << p;
    }
}

struct MatchCase
{
    const char *pattern;
    const char *text;
    bool expect;
};

// Without a printer gtest dumps the struct's bytes (two pointers and
// padding) into the listed parameter, and ctest builds its test names
// from that, so every build and run named the cases differently.
void
PrintTo(const MatchCase &c, std::ostream *os)
{
    *os << c.pattern << " vs " << c.text << ": "
        << (c.expect ? "match" : "no match");
}

class RegexSemantics : public ::testing::TestWithParam<MatchCase>
{
};

TEST_P(RegexSemantics, NfaAndDfaAgreeWithExpectation)
{
    const auto &[pattern, text, expect] = GetParam();
    EXPECT_EQ(nfaMatches(pattern, text), expect)
        << "NFA " << pattern << " vs " << text;
    EXPECT_EQ(dfaMatches(pattern, text), expect)
        << "DFA " << pattern << " vs " << text;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RegexSemantics,
    ::testing::Values(
        MatchCase{"abc", "xxabcxx", true},
        MatchCase{"abc", "xxabxcx", false},
        MatchCase{"a.c", "zzabz", false},
        MatchCase{"a.c", "zzaXcz", true},
        MatchCase{"ab*c", "xacx", true},
        MatchCase{"ab*c", "xabbbbcx", true},
        MatchCase{"ab+c", "xacx", false},
        MatchCase{"ab+c", "xabcx", true},
        MatchCase{"ab?c", "abc", true},
        MatchCase{"ab?c", "ac", true},
        MatchCase{"ab?c", "abbc", false},
        MatchCase{"a{3}", "xaaax", true},
        MatchCase{"a{3}", "xaax", false},
        MatchCase{"ba{2,4}b", "xbaaabx", true},
        MatchCase{"ba{2,4}b", "xbabx", false},
        MatchCase{"ba{2,4}b", "baaaaab", false},
        MatchCase{"ba{2,}b", "xbaaaaaaab", true},
        MatchCase{"ba{2,}b", "xbab", false},
        MatchCase{"a{0,2}b", "zzb", true},
        MatchCase{"(cat|dog)food", "mydogfood", true},
        MatchCase{"(cat|dog)food", "mycowfood", false},
        MatchCase{"[a-c]+z", "xbazy", true},
        MatchCase{"[^0-9]7", "a7", true},
        MatchCase{"[^0-9]7", "77", false},
        MatchCase{"\\d{3}", "ab123cd", true},
        MatchCase{"\\d{3}", "ab12cd", false},
        MatchCase{"\\w+@\\w+", "mail me@you now", true},
        MatchCase{"\\s", "nospace", false},
        MatchCase{"\\x41\\x42", "xxAByy", true},
        MatchCase{"a\\.b", "a.b", true},
        MatchCase{"a\\.b", "axb", false},
        MatchCase{"GIF8[79]a", "zzGIF89azz", true},
        MatchCase{"GIF8[79]a", "zzGIF88azz", false}));

TEST(Dfa, MultiPatternTagsAreDistinct)
{
    const Nfa nfa = Nfa::compileMany({"cat", "dog", "bird{2}"});
    const Dfa dfa(nfa);
    WorkCounters work;
    const std::string text = "the dog chased the cat up a tree";
    auto tags = dfa.scan(
        reinterpret_cast<const std::uint8_t *>(text.data()),
        text.size(), work);
    EXPECT_TRUE(tags.count(0));
    EXPECT_TRUE(tags.count(1));
    EXPECT_FALSE(tags.count(2));
}

TEST(Dfa, AgreesWithNfaOnRandomInputs)
{
    // Property test: DFA and NFA must classify identical tag sets on
    // random byte strings for a non-trivial pattern mix.
    const std::vector<std::string> patterns{
        "ab+c", "x[0-9]{2}y", "(foo|bar)baz", "\\x7fELF", "z.z"};
    const Nfa nfa = Nfa::compileMany(patterns);
    const Dfa dfa(nfa);
    Random rng(41);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> data(rng.uniformInt(0, 60));
        for (auto &b : data) {
            // Biased alphabet so matches actually occur.
            static const char alphabet[] = "abcxyz0189forz\x7f ELF";
            b = static_cast<std::uint8_t>(
                alphabet[rng.uniformInt(0, sizeof(alphabet) - 2)]);
        }
        WorkCounters w1, w2;
        const auto from_nfa = nfa.scan(data.data(), data.size(), w1);
        const auto from_dfa = dfa.scan(data.data(), data.size(), w2);
        ASSERT_EQ(from_nfa, from_dfa)
            << "trial " << trial << " len " << data.size();
    }
}

TEST(Dfa, CountsPerByteWork)
{
    const Dfa dfa(Nfa::compile("needle"));
    WorkCounters work;
    std::vector<std::uint8_t> hay(1000, 'x');
    dfa.scan(hay.data(), hay.size(), work);
    EXPECT_EQ(work.randomTouches, 1000u);
    EXPECT_EQ(work.streamBytes, 1000u);
}

TEST(RuleSets, AllCompileWithinBudget)
{
    for (RuleSetId id : {RuleSetId::FileImage, RuleSetId::FileFlash,
                         RuleSetId::FileExecutable}) {
        const CompiledRuleSet compiled(makeRuleSet(id));
        EXPECT_GT(compiled.dfa().numStates(), 10u) << compiled.name();
        EXPECT_GT(compiled.numPatterns(), 5u);
    }
}

TEST(RuleSets, ImageIsTheHeaviestSet)
{
    // The paper's mechanism (Fig. 5): file_image compiles to a much
    // larger automaton than the literal-heavy sets.
    const CompiledRuleSet img(makeRuleSet(RuleSetId::FileImage));
    const CompiledRuleSet fla(makeRuleSet(RuleSetId::FileFlash));
    const CompiledRuleSet exe(makeRuleSet(RuleSetId::FileExecutable));
    EXPECT_GT(img.tableBytes(), fla.tableBytes());
    EXPECT_GT(img.tableBytes(), exe.tableBytes());
}

TEST(RuleSets, SeededPayloadsMatchAndCleanOnesRarely)
{
    Random rng(43);
    const RuleSet rules = makeRuleSet(RuleSetId::FileExecutable);
    const CompiledRuleSet compiled(rules);
    WorkCounters work;
    int matched = 0;
    for (int i = 0; i < 100; ++i) {
        auto payload = synthesizePayload(rules, 256, 1.0, rng);
        matched += !compiled.dfa()
                        .scan(payload.data(), payload.size(), work)
                        .empty();
    }
    EXPECT_GE(matched, 95);  // every seeded payload should match

    int clean_matched = 0;
    for (int i = 0; i < 100; ++i) {
        auto payload = synthesizePayload(rules, 256, 0.0, rng);
        clean_matched += !compiled.dfa()
                              .scan(payload.data(), payload.size(), work)
                              .empty();
    }
    EXPECT_LE(clean_matched, 20);
}
