#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mln/model.h"
#include "mln/parser.h"
#include "util/rng.h"

namespace tuffy {
namespace {

const char* kFigure1Program =
    "// Figure 1 of the paper\n"
    "*paper(paper, url)\n"
    "*wrote(author, paper)\n"
    "*refers(paper, paper)\n"
    "cat(paper, category)\n"
    "5 cat(p, c1), cat(p, c2) => c1 = c2\n"
    "1 wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)\n"
    "2 cat(p1, c), refers(p1, p2) => cat(p2, c)\n"
    "paper(p, u) => EXIST x wrote(x, p).\n"
    "-1 cat(p, \"Networking\")\n";

TEST(ParserTest, ParsesFigure1Program) {
  auto result = ParseProgram(kFigure1Program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const MlnProgram& p = result.value();
  EXPECT_EQ(p.num_predicates(), 4u);
  EXPECT_EQ(p.clauses().size(), 5u);
}

TEST(ParserTest, ClosedWorldFlagParsed) {
  auto result = ParseProgram(kFigure1Program);
  ASSERT_TRUE(result.ok());
  const MlnProgram& p = result.value();
  EXPECT_TRUE(p.predicate(p.FindPredicate("wrote").value()).closed_world);
  EXPECT_FALSE(p.predicate(p.FindPredicate("cat").value()).closed_world);
}

TEST(ParserTest, ImplicationBecomesClausalForm) {
  auto result = ParseProgram(
      "*r(t, t)\n"
      "q(t)\n"
      "2 q(x), r(x, y) => q(y)\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Clause& c = result.value().clauses()[0];
  ASSERT_EQ(c.literals.size(), 3u);
  EXPECT_FALSE(c.literals[0].positive);  // body atoms negated
  EXPECT_FALSE(c.literals[1].positive);
  EXPECT_TRUE(c.literals[2].positive);  // head stays positive
  EXPECT_EQ(c.weight, 2.0);
  EXPECT_FALSE(c.hard);
  EXPECT_EQ(c.num_vars, 2);
}

TEST(ParserTest, EqualityHeadBecomesConstraint) {
  auto result = ParseProgram(
      "q(t, u)\n"
      "5 q(x, c1), q(x, c2) => c1 = c2\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Clause& c = result.value().clauses()[0];
  EXPECT_EQ(c.literals.size(), 2u);
  ASSERT_EQ(c.equalities.size(), 1u);
  EXPECT_TRUE(c.equalities[0].equal);
}

TEST(ParserTest, BodyInequalityFlipsPolarity) {
  // Body "x != y" is a negated disjunct: clausal form carries "x = y".
  auto result = ParseProgram(
      "q(t, t)\n"
      "1 q(x, y), x != y => q(y, x)\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Clause& c = result.value().clauses()[0];
  ASSERT_EQ(c.equalities.size(), 1u);
  EXPECT_TRUE(c.equalities[0].equal);
}

TEST(ParserTest, HardRuleTrailingPeriod) {
  auto result = ParseProgram(
      "*p(t)\n"
      "q(t)\n"
      "p(x) => q(x).\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().clauses()[0].hard);
}

TEST(ParserTest, HardRuleWithWeightRejected) {
  auto result = ParseProgram(
      "*p(t)\n"
      "q(t)\n"
      "3 p(x) => q(x).\n");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, SoftRuleWithoutWeightRejected) {
  auto result = ParseProgram(
      "*p(t)\n"
      "q(t)\n"
      "p(x) => q(x)\n");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, NegativeWeightUnitClause) {
  auto result = ParseProgram(
      "q(t)\n"
      "-1.5 q(x)\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result.value().clauses()[0].weight, -1.5);
}

TEST(ParserTest, ExistentialVariablesRecorded) {
  auto result = ParseProgram(
      "*p(t)\n"
      "w(a, t)\n"
      "p(x) => EXIST y w(y, x).\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Clause& c = result.value().clauses()[0];
  ASSERT_EQ(c.existential_vars.size(), 1u);
  EXPECT_TRUE(c.hard);
}

TEST(ParserTest, DisjunctionWithV) {
  auto result = ParseProgram(
      "q(t)\n"
      "r(t)\n"
      "1 q(x) v r(x)\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Clause& c = result.value().clauses()[0];
  EXPECT_EQ(c.literals.size(), 2u);
  EXPECT_TRUE(c.literals[0].positive);
  EXPECT_TRUE(c.literals[1].positive);
}

TEST(ParserTest, NegatedLiteralInClause) {
  auto result = ParseProgram(
      "q(t)\n"
      "1 !q(x) v q(x)\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().clauses()[0].literals[0].positive);
}

TEST(ParserTest, ConstantsInterned) {
  auto result = ParseProgram(
      "q(t)\n"
      "1 q(\"Apple\")\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const MlnProgram& p = result.value();
  EXPECT_GE(p.symbols().Find("Apple"), 0);
  EXPECT_FALSE(p.clauses()[0].literals[0].args[0].is_var);
}

TEST(ParserTest, CapitalizedIdentifierIsConstant) {
  auto result = ParseProgram(
      "q(t)\n"
      "1 q(Foo)\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().clauses()[0].literals[0].args[0].is_var);
}

TEST(ParserTest, UnknownPredicateFails) {
  auto result = ParseProgram("1 nosuch(x)\n");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(ParserTest, ArityMismatchFails) {
  auto result = ParseProgram(
      "q(t, t)\n"
      "1 q(x)\n");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, TypeConflictFails) {
  auto result = ParseProgram(
      "q(ta)\n"
      "r(tb)\n"
      "1 q(x), r(x) => q(x)\n");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, DuplicatePredicateFails) {
  auto result = ParseProgram(
      "q(t)\n"
      "q(t)\n");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, CommentsAndBlankLinesIgnored) {
  auto result = ParseProgram(
      "// comment\n"
      "\n"
      "# another comment\n"
      "q(t)  // trailing comment\n"
      "1 q(x)  // and here\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().clauses().size(), 1u);
}

TEST(ParserTest, ToStringRoundTripsStructure) {
  auto result = ParseProgram(kFigure1Program);
  ASSERT_TRUE(result.ok());
  std::string printed = result.value().ToString();
  // The printed program must itself parse to the same shape.
  auto reparsed = ParseProgram(printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                             << printed;
  EXPECT_EQ(reparsed.value().clauses().size(),
            result.value().clauses().size());
  EXPECT_EQ(reparsed.value().num_predicates(),
            result.value().num_predicates());
}

// --------------------------------------------------------------- Evidence

TEST(EvidenceParserTest, ParsesPositiveAndNegative) {
  auto program = ParseProgram("*wrote(author, paper)\ncat(paper, category)\n");
  ASSERT_TRUE(program.ok());
  MlnProgram p = program.TakeValue();
  EvidenceDb db;
  Status st = ParseEvidence(
      "wrote(Joe, P1)\n"
      "!cat(P3, \"AI\")\n"
      "// comment\n",
      &p, &db);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(db.num_evidence(), 2u);

  GroundAtom wrote;
  wrote.pred = p.FindPredicate("wrote").value();
  wrote.args = {p.symbols().Find("Joe"), p.symbols().Find("P1")};
  EXPECT_EQ(db.Lookup(p, wrote), Truth::kTrue);

  GroundAtom cat;
  cat.pred = p.FindPredicate("cat").value();
  cat.args = {p.symbols().Find("P3"), p.symbols().Find("AI")};
  EXPECT_EQ(db.Lookup(p, cat), Truth::kFalse);
}

TEST(EvidenceParserTest, ClosedWorldDefaultsFalse) {
  auto program = ParseProgram("*wrote(author, paper)\ncat(paper, category)\n");
  ASSERT_TRUE(program.ok());
  MlnProgram p = program.TakeValue();
  EvidenceDb db;
  ASSERT_TRUE(ParseEvidence("wrote(Joe, P1)\n", &p, &db).ok());

  GroundAtom absent_closed;
  absent_closed.pred = p.FindPredicate("wrote").value();
  absent_closed.args = {p.symbols().Find("P1"), p.symbols().Find("Joe")};
  EXPECT_EQ(db.Lookup(p, absent_closed), Truth::kFalse);

  GroundAtom absent_open;
  absent_open.pred = p.FindPredicate("cat").value();
  absent_open.args = {p.symbols().Find("P1"), p.symbols().Find("Joe")};
  EXPECT_EQ(db.Lookup(p, absent_open), Truth::kUnknown);
}

TEST(EvidenceParserTest, UnknownPredicateFails) {
  auto program = ParseProgram("q(t)\n");
  ASSERT_TRUE(program.ok());
  MlnProgram p = program.TakeValue();
  EvidenceDb db;
  EXPECT_FALSE(ParseEvidence("nosuch(A)\n", &p, &db).ok());
}

TEST(EvidenceParserTest, ArityMismatchFails) {
  auto program = ParseProgram("q(t, t)\n");
  ASSERT_TRUE(program.ok());
  MlnProgram p = program.TakeValue();
  EvidenceDb db;
  EXPECT_FALSE(ParseEvidence("q(A)\n", &p, &db).ok());
  EXPECT_FALSE(ParseEvidence("q(A, B, C)\n", &p, &db).ok());
}

TEST(EvidenceParserTest, LaterEntriesOverwrite) {
  auto program = ParseProgram("q(t)\n");
  ASSERT_TRUE(program.ok());
  MlnProgram p = program.TakeValue();
  EvidenceDb db;
  ASSERT_TRUE(ParseEvidence("q(A)\n!q(A)\n", &p, &db).ok());
  GroundAtom a;
  a.pred = 0;
  a.args = {p.symbols().Find("A")};
  EXPECT_EQ(db.Lookup(p, a), Truth::kFalse);
}

TEST(EvidenceParserTest, MalformedRowsFailWithLineNumber) {
  auto program = ParseProgram("q(t, t)\nr(t)\n");
  ASSERT_TRUE(program.ok());
  for (const char* row :
       {"q(A, B) r(C)", "q(A B)", "q(A, B,)", "q(A, B) garbage", "q(A, B) #",
        "q(,A, B)", "q(A,, B)", "q(A, B", "q(A, B))", "!", "q"}) {
    MlnProgram p = program.value();
    EvidenceDb db;
    Status st = ParseEvidence(std::string("q(X, Y)\n") + row + "\n", &p, &db);
    EXPECT_EQ(st.code(), StatusCode::kParseError) << row;
    EXPECT_EQ(st.message().rfind("line 2:", 0), 0u) << row << ": "
                                                     << st.ToString();
    // A failed parse keeps the rows before it.
    EXPECT_EQ(db.num_evidence(), 1u) << row;
  }
}

TEST(EvidenceParserTest, TrailingWhitespaceAndCommentAccepted) {
  auto program = ParseProgram("q(t, t)\n");
  ASSERT_TRUE(program.ok());
  MlnProgram p = program.TakeValue();
  EvidenceDb db;
  Status st = ParseEvidence("q(A, B)   // note\r\nq(C,D)\t\n", &p, &db);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(db.num_evidence(), 2u);
}

// One evidence row as a caller would Add it by hand.
struct Row {
  const char* pred;
  std::vector<const char*> args;
  bool truth;
};

// The loader must equal Add-ing the rows in text order: the same constant
// ids, domain orders and evidence-map iteration order. Atom numbering in
// grounding follows that iteration order, so it pins the MAP trajectory.
TEST(EvidenceParserTest, EqualsAddingRowsInTextOrder) {
  const char* kProgram =
      "q(t, u)\n"
      "*r(t, n)\n"
      "1 q(x, Pre) => r(x, 0)\n";
  const char* kEvidence =
      "// leading comment\r\n"
      "# hash comment\n"
      "\n"
      "q(A, \"x y\")\r\n"
      "!r(\"a,b\", 12)\n"
      "   \t \r\n"
      "q(B, 3.5)   // trailing comment\n"
      "r(A, -7)\n"
      "q(Pre, 'single quoted')\n"
      "q(A, \"x y\")\n"
      "!q(A, \"x y\")\n"
      "q(Mid, B)\r\n"
      "  !r(Late, 12)  \n"
      "q(A, Pre)";
  const std::vector<Row> rows = {
      {"q", {"A", "x y"}, true},      {"r", {"a,b", "12"}, false},
      {"q", {"B", "3.5"}, true},      {"r", {"A", "-7"}, true},
      {"q", {"Pre", "single quoted"}, true},
      {"q", {"A", "x y"}, true},      {"q", {"A", "x y"}, false},
      {"q", {"Mid", "B"}, true},      {"r", {"Late", "12"}, false},
      {"q", {"A", "Pre"}, true},
  };
  auto base = ParseProgram(kProgram);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  MlnProgram parsed = base.value();
  EvidenceDb parsed_db;
  Status st = ParseEvidence(kEvidence, &parsed, &parsed_db);
  ASSERT_TRUE(st.ok()) << st.ToString();

  MlnProgram added = base.value();
  EvidenceDb added_db;
  for (const Row& row : rows) {
    GroundAtom atom;
    atom.pred = added.FindPredicate(row.pred).value();
    const Predicate& pred = added.predicate(atom.pred);
    for (size_t i = 0; i < row.args.size(); ++i) {
      atom.args.push_back(
          added.symbols().Intern(row.args[i], pred.arg_types[i]));
    }
    added_db.Add(std::move(atom), row.truth);
  }

  const SymbolTable& ps = parsed.symbols();
  const SymbolTable& as = added.symbols();
  ASSERT_EQ(ps.num_constants(), as.num_constants());
  for (size_t i = 0; i < ps.num_constants(); ++i) {
    const ConstantId c = static_cast<ConstantId>(i);
    EXPECT_EQ(ps.SymbolName(c), as.SymbolName(c)) << i;
    EXPECT_EQ(ps.Find(ps.SymbolName(c)), c);
  }
  for (const char* type : {"t", "u", "n"}) {
    EXPECT_EQ(ps.Domain(type), as.Domain(type)) << type;
  }
  // "Pre" first appears in the rule; "Mid" and "Late" only mid-file.
  EXPECT_EQ(ps.Find("Pre"), 0);
  EXPECT_EQ(ps.Domain("t").back(), ps.Find("Late"));
  EXPECT_GE(ps.Find("x y"), 0);
  EXPECT_GE(ps.Find("a,b"), 0);

  std::vector<std::pair<GroundAtom, bool>> parsed_entries(
      parsed_db.entries().begin(), parsed_db.entries().end());
  std::vector<std::pair<GroundAtom, bool>> added_entries(
      added_db.entries().begin(), added_db.entries().end());
  EXPECT_EQ(parsed_entries, added_entries);
  EXPECT_EQ(parsed_db.num_evidence(), 8u);
}

// Seeded structure-aware fuzz of both text parsers: valid text mutated
// by byte flips, truncation, dropped or duplicated delimiters and quotes,
// and embedded NULs must come back OK or ParseError, never crash. Each
// case is parsed from an exactly-sized heap copy so a read past the end
// trips AddressSanitizer.
TEST(ParserFuzzTest, MutatedTextParsesOrFailsCleanly) {
  const std::string kProgram =
      std::string(kFigure1Program) +
      "3 !cat(p, 'Theory') v cat(p, \"AI\")\n"
      "0.5e-1 refers(p1, p2), p1 != p2 => !refers(p2, p1)\n";
  const std::string kEvidence =
      "wrote(Joe, P1)\r\n"
      "!cat(P3, \"AI, ML\")\n"
      "# comment\n"
      "refers(P1, 'P 2')   // trailing\n"
      "paper(P1, 42)\n"
      "cat(P2, -1.5e3)\n";
  auto base = ParseProgram(kProgram);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  static constexpr char kStructural[] = "(),\"'!=>.v/#\n";

  Rng rng(20261020);
  auto mutate = [&](std::string text) {
    const int edits = 1 + static_cast<int>(rng.Uniform(3));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const size_t at = rng.Uniform(text.size());
      switch (rng.Uniform(6)) {
        case 0:  // byte flip
          text[at] = static_cast<char>(text[at] ^ (1 << rng.Uniform(8)));
          break;
        case 1:  // truncation
          text.resize(at);
          break;
        case 2: {  // drop a delimiter or quote
          const size_t hit = text.find_first_of("(),\"'", at);
          if (hit != std::string::npos) text.erase(hit, 1);
          break;
        }
        case 3: {  // duplicate a delimiter or quote
          const size_t hit = text.find_first_of("(),\"'", at);
          if (hit != std::string::npos) text.insert(hit, 1, text[hit]);
          break;
        }
        case 4:  // insert structural syntax
          text.insert(at, 1, kStructural[rng.Uniform(sizeof(kStructural) - 1)]);
          break;
        default:  // embedded NUL
          text.insert(at, 1, '\0');
          break;
      }
    }
    return text;
  };
  auto exact_copy = [](const std::string& text) {
    std::unique_ptr<char[]> buf(new char[text.size()]);
    std::copy(text.begin(), text.end(), buf.get());
    return buf;
  };

  int program_ok = 0, evidence_ok = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::string prog_text = mutate(kProgram);
    auto prog_buf = exact_copy(prog_text);
    auto prog =
        ParseProgram(std::string_view(prog_buf.get(), prog_text.size()));
    if (prog.ok()) {
      ++program_ok;
    } else {
      ASSERT_EQ(prog.status().code(), StatusCode::kParseError)
          << prog.status().ToString();
    }

    const std::string ev_text = mutate(kEvidence);
    auto ev_buf = exact_copy(ev_text);
    MlnProgram p = base.value();
    EvidenceDb db;
    Status st =
        ParseEvidence(std::string_view(ev_buf.get(), ev_text.size()), &p, &db);
    if (st.ok()) {
      ++evidence_ok;
    } else {
      ASSERT_EQ(st.code(), StatusCode::kParseError) << st.ToString();
    }
  }
  // The mutations must leave both outcomes common, or the loop tests
  // little.
  EXPECT_GT(program_ok, 100);
  EXPECT_LT(program_ok, 4900);
  EXPECT_GT(evidence_ok, 100);
  EXPECT_LT(evidence_ok, 4900);
}

TEST(SymbolTableTest, InternIsIdempotentAndTracksDomains) {
  SymbolTable symbols;
  ConstantId a1 = symbols.Intern("A", "letter");
  ConstantId a2 = symbols.Intern("A", "letter");
  EXPECT_EQ(a1, a2);
  symbols.Intern("B", "letter");
  symbols.Intern("A", "other");
  EXPECT_EQ(symbols.Domain("letter").size(), 2u);
  EXPECT_EQ(symbols.Domain("other").size(), 1u);
  EXPECT_EQ(symbols.Domain("missing").size(), 0u);
  EXPECT_EQ(symbols.num_constants(), 2u);
  EXPECT_EQ(symbols.SymbolName(a1), "A");
}

TEST(SymbolTableTest, ManySymbolsKeepIdsAcrossGrowth) {
  SymbolTable symbols;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(symbols.Intern("c" + std::to_string(i), i % 2 ? "odd" : "even"),
              i);
  }
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(symbols.Find("c" + std::to_string(i)), i);
  }
  EXPECT_EQ(symbols.Find("c5000"), -1);
  EXPECT_EQ(symbols.Find(""), -1);
  EXPECT_EQ(symbols.Domain("even").size(), 2500u);
  EXPECT_EQ(symbols.Domain("odd")[1], 3);
  // Re-registering an existing member keeps the domain unchanged.
  symbols.Intern("c3", "odd");
  EXPECT_EQ(symbols.Domain("odd").size(), 2500u);
}

}  // namespace
}  // namespace tuffy
