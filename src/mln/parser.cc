#include "mln/parser.h"

#include <cctype>
#include <cstdlib>
#include <span>
#include <string_view>
#include <unordered_map>

#include "util/string_util.h"

namespace tuffy {

namespace {

enum class TokType {
  kIdent,    // bare identifier or quoted string (quoted_ set)
  kNumber,   // numeric literal
  kLParen,
  kRParen,
  kComma,
  kBang,
  kImplies,  // =>
  kEq,       // =
  kNeq,      // !=
  kPeriod,
  kEnd,
};

/// A token's text views the source, which outlives every parse step.
struct Token {
  TokType type = TokType::kEnd;
  std::string_view text;
  bool quoted = false;
};

bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool IsIdentChar(char c) { return IsAlpha(c) || IsDigit(c) || c == '_'; }
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' ||
         c == '\f';
}

/// Tokenizes one source line into `out` (cleared first, so one buffer
/// serves every line), ending it with a kEnd token. A `//` ends the line.
Status Tokenize(std::string_view line, std::vector<Token>* out) {
  out->clear();
  size_t pos = 0;
  auto emit = [&](TokType type, size_t len) {
    out->push_back({type, line.substr(pos, len)});
    pos += len;
  };
  auto next_is = [&](char c) {
    return pos + 1 < line.size() && line[pos + 1] == c;
  };
  while (pos < line.size()) {
    const char c = line[pos];
    if (IsSpace(c)) {
      ++pos;
    } else if (c == '/' && next_is('/')) {
      break;
    } else if (c == '(') {
      emit(TokType::kLParen, 1);
    } else if (c == ')') {
      emit(TokType::kRParen, 1);
    } else if (c == ',') {
      emit(TokType::kComma, 1);
    } else if (c == '!') {
      if (next_is('=')) {
        emit(TokType::kNeq, 2);
      } else {
        emit(TokType::kBang, 1);
      }
    } else if (c == '=') {
      if (next_is('>')) {
        emit(TokType::kImplies, 2);
      } else {
        emit(TokType::kEq, 1);
      }
    } else if (c == '.') {
      emit(TokType::kPeriod, 1);
    } else if (c == '"' || c == '\'') {
      const size_t close = line.find(c, pos + 1);
      if (close == std::string_view::npos) {
        return Status::ParseError("unterminated string literal");
      }
      out->push_back(
          {TokType::kIdent, line.substr(pos + 1, close - pos - 1), true});
      pos = close + 1;
    } else if (IsDigit(c) || c == '-' || c == '+') {
      size_t end = pos + 1;
      while (end < line.size() &&
             (IsDigit(line[end]) || line[end] == '.' || line[end] == 'e' ||
              line[end] == 'E' ||
              ((line[end] == '-' || line[end] == '+') &&
               (line[end - 1] == 'e' || line[end - 1] == 'E')))) {
        ++end;
      }
      emit(TokType::kNumber, end - pos);
    } else if (IsAlpha(c) || c == '_') {
      size_t end = pos + 1;
      while (end < line.size() && IsIdentChar(line[end])) ++end;
      emit(TokType::kIdent, end - pos);
    } else if (c == '*') {
      emit(TokType::kIdent, 1);
    } else if (c >= 0x20 && c < 0x7f) {
      return Status::ParseError(StrFormat("unexpected character '%c'", c));
    } else {
      return Status::ParseError(
          StrFormat("unexpected byte 0x%02x", static_cast<unsigned char>(c)));
    }
  }
  out->push_back({TokType::kEnd, {}});
  return Status::OK();
}

/// Prefixes a parse failure with its 1-based source line.
Status AtLine(int line_no, const Status& st) {
  return Status::ParseError(
      StrFormat("line %d: %s", line_no, st.message().c_str()));
}

/// Walks `text` line by line in place, calling `fn(line_no, line)` with
/// each trimmed line that is neither blank nor a `//` or `#` comment;
/// stops at the first failure.
template <typename Fn>
Status ForEachLine(std::string_view text, Fn&& fn) {
  int line_no = 0;
  for (size_t pos = 0; pos < text.size();) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    ++line_no;
    const std::string_view line = Trim(text.substr(pos, end - pos));
    pos = end + 1;
    if (line.empty() || StartsWith(line, "//") || StartsWith(line, "#")) {
      continue;
    }
    TUFFY_RETURN_IF_ERROR(fn(line_no, line));
  }
  return Status::OK();
}

/// True if the identifier denotes a variable (starts lowercase, unquoted).
bool IsVariableName(const Token& t) {
  return t.type == TokType::kIdent && !t.quoted && !t.text.empty() &&
         std::islower(static_cast<unsigned char>(t.text[0]));
}

/// Parses the body of one rule line into a Clause.
class RuleParser {
 public:
  RuleParser(std::span<const Token> tokens, MlnProgram* program)
      : tokens_(tokens), program_(program) {}

  Result<Clause> Parse(double weight, bool* hard_out) {
    clause_.weight = weight;

    // Collect the left-hand side (conjunction) if an implication exists.
    // We scan for a top-level "=>" first.
    int implies_pos = -1;
    for (size_t i = 0; i < tokens_.size(); ++i) {
      if (tokens_[i].type == TokType::kImplies) {
        implies_pos = static_cast<int>(i);
        break;
      }
    }

    if (implies_pos >= 0) {
      // Parse body atoms (comma-separated), negating each into the clause.
      TUFFY_RETURN_IF_ERROR(ParseAtomList(/*end=*/implies_pos,
                                          /*negate=*/true,
                                          /*allow_exist=*/false));
      pos_ = static_cast<size_t>(implies_pos) + 1;
      TUFFY_RETURN_IF_ERROR(ParseDisjunction(/*negate=*/false));
    } else {
      TUFFY_RETURN_IF_ERROR(ParseDisjunction(/*negate=*/false));
    }

    if (Cur().type == TokType::kPeriod) {
      *hard_out = true;
      ++pos_;
    }
    if (Cur().type != TokType::kEnd) {
      return Status::ParseError(StrFormat("trailing tokens starting at '%s'",
                                          std::string(Cur().text).c_str()));
    }
    clause_.num_vars = static_cast<int>(var_ids_.size());
    return std::move(clause_);
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Peek(size_t k = 1) const {
    size_t i = pos_ + k;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  Result<Term> MakeTerm(const Token& tok, std::string_view type) {
    if (IsVariableName(tok) && !tok.quoted) {
      auto it = var_ids_.find(tok.text);
      VarId v;
      if (it != var_ids_.end()) {
        v = it->second;
      } else {
        v = static_cast<VarId>(var_ids_.size());
        var_ids_[tok.text] = v;
        clause_.var_names.emplace_back(tok.text);
      }
      return Term::Var(v);
    }
    ConstantId c = program_->symbols().Intern(tok.text, type);
    return Term::Const(c);
  }

  /// Parses `[!]name(t1,...,tk)` or `t1 = t2` / `t1 != t2`.
  /// Appends to clause_ with the given polarity handling: if `negate`,
  /// literal signs are flipped (body of an implication) and equalities
  /// flip their `equal` flag.
  Status ParseAtomOrEquality(bool negate) {
    bool bang = false;
    if (Cur().type == TokType::kBang) {
      bang = true;
      ++pos_;
    }
    if (Cur().type != TokType::kIdent && Cur().type != TokType::kNumber) {
      return Status::ParseError(StrFormat("expected atom, got '%s'",
                                          std::string(Cur().text).c_str()));
    }
    // Equality disjunct: term (=|!=) term.
    if (Peek().type == TokType::kEq || Peek().type == TokType::kNeq) {
      Token lhs_tok = Cur();
      ++pos_;
      bool equal = Cur().type == TokType::kEq;
      ++pos_;
      Token rhs_tok = Cur();
      if (rhs_tok.type != TokType::kIdent && rhs_tok.type != TokType::kNumber) {
        return Status::ParseError("expected term after (in)equality");
      }
      ++pos_;
      // Types are resolved later from literal usage; intern constants into
      // the anonymous type "_const".
      TUFFY_ASSIGN_OR_RETURN(Term lhs, MakeTerm(lhs_tok, "_const"));
      TUFFY_ASSIGN_OR_RETURN(Term rhs, MakeTerm(rhs_tok, "_const"));
      if (bang) equal = !equal;
      if (negate) equal = !equal;
      clause_.equalities.push_back(EqualityConstraint{lhs, rhs, equal});
      return Status::OK();
    }
    // Predicate atom.
    if (Cur().type != TokType::kIdent || Cur().quoted) {
      return Status::ParseError("expected predicate name");
    }
    const std::string pred_name(Cur().text);
    ++pos_;
    TUFFY_ASSIGN_OR_RETURN(PredicateId pid,
                           program_->FindPredicate(pred_name));
    const Predicate& pred = program_->predicate(pid);
    if (Cur().type != TokType::kLParen) {
      return Status::ParseError(
          StrFormat("expected '(' after %s", pred_name.c_str()));
    }
    ++pos_;
    Literal lit;
    lit.pred = pid;
    int arg_idx = 0;
    while (Cur().type != TokType::kRParen) {
      if (Cur().type != TokType::kIdent && Cur().type != TokType::kNumber) {
        return Status::ParseError(
            StrFormat("bad term '%s' in %s", std::string(Cur().text).c_str(),
                      pred_name.c_str()));
      }
      if (arg_idx >= pred.arity()) {
        return Status::ParseError(
            StrFormat("too many arguments to %s", pred_name.c_str()));
      }
      TUFFY_ASSIGN_OR_RETURN(Term t,
                             MakeTerm(Cur(), pred.arg_types[arg_idx]));
      lit.args.push_back(t);
      ++arg_idx;
      ++pos_;
      if (Cur().type == TokType::kComma) {
        ++pos_;
      } else if (Cur().type != TokType::kRParen) {
        return Status::ParseError("expected ',' or ')' in argument list");
      }
    }
    ++pos_;  // consume ')'
    if (arg_idx != pred.arity()) {
      return Status::ParseError(
          StrFormat("predicate %s expects %d args, got %d", pred_name.c_str(),
                    pred.arity(), arg_idx));
    }
    lit.positive = !bang;
    if (negate) lit.positive = !lit.positive;
    clause_.literals.push_back(std::move(lit));
    return Status::OK();
  }

  /// Parses a comma-separated atom list up to token index `end`.
  Status ParseAtomList(int end, bool negate, bool allow_exist) {
    (void)allow_exist;
    while (static_cast<int>(pos_) < end) {
      TUFFY_RETURN_IF_ERROR(ParseAtomOrEquality(negate));
      if (static_cast<int>(pos_) < end) {
        if (Cur().type != TokType::kComma) {
          return Status::ParseError(
              StrFormat("expected ',' in rule body, got '%s'",
                        std::string(Cur().text).c_str()));
        }
        ++pos_;
      }
    }
    return Status::OK();
  }

  /// Parses a "v"-separated disjunction, handling a leading EXIST.
  Status ParseDisjunction(bool negate) {
    // Optional leading EXIST var[,var...]
    if (Cur().type == TokType::kIdent &&
        (Cur().text == "EXIST" || Cur().text == "Exist" ||
         Cur().text == "exist")) {
      ++pos_;
      while (true) {
        if (Cur().type != TokType::kIdent || !IsVariableName(Cur())) {
          return Status::ParseError("expected variable after EXIST");
        }
        auto it = var_ids_.find(Cur().text);
        VarId v;
        if (it != var_ids_.end()) {
          v = it->second;
        } else {
          v = static_cast<VarId>(var_ids_.size());
          var_ids_[Cur().text] = v;
          clause_.var_names.emplace_back(Cur().text);
        }
        clause_.existential_vars.push_back(v);
        ++pos_;
        if (Cur().type == TokType::kComma) {
          ++pos_;
          continue;
        }
        break;
      }
    }
    while (true) {
      TUFFY_RETURN_IF_ERROR(ParseAtomOrEquality(negate));
      if (Cur().type == TokType::kIdent && !Cur().quoted &&
          (Cur().text == "v" || Cur().text == "V")) {
        ++pos_;
        continue;
      }
      break;
    }
    return Status::OK();
  }

  std::span<const Token> tokens_;
  size_t pos_ = 0;
  MlnProgram* program_;
  Clause clause_;
  std::unordered_map<std::string_view, VarId> var_ids_;
};

/// True if the token stream looks like a predicate declaration:
/// [*] ident ( ident {, ident} ) END — with every argument a bare
/// lowercase identifier (a type name) and no weight prefix.
bool LooksLikeDeclaration(std::span<const Token> toks) {
  size_t i = 0;
  if (toks[i].type == TokType::kIdent && toks[i].text == "*") ++i;
  if (toks[i].type != TokType::kIdent || toks[i].quoted) return false;
  ++i;
  if (toks[i].type != TokType::kLParen) return false;
  ++i;
  while (true) {
    if (toks[i].type != TokType::kIdent || toks[i].quoted) return false;
    if (!IsVariableName(toks[i])) return false;
    ++i;
    if (toks[i].type == TokType::kComma) {
      ++i;
      continue;
    }
    break;
  }
  if (toks[i].type != TokType::kRParen) return false;
  ++i;
  return toks[i].type == TokType::kEnd;
}

}  // namespace

Result<MlnProgram> ParseProgram(std::string_view text) {
  MlnProgram program;
  std::vector<Token> toks;
  Status parsed = ForEachLine(text, [&](int line_no, std::string_view line) {
    Status lexed = Tokenize(line, &toks);
    if (!lexed.ok()) return AtLine(line_no, lexed);
    if (toks.size() <= 1) return Status::OK();

    if (LooksLikeDeclaration(toks)) {
      size_t i = 0;
      Predicate pred;
      if (toks[i].text == "*") {
        pred.closed_world = true;
        ++i;
      }
      pred.name = std::string(toks[i].text);
      i += 2;  // name, '('
      while (toks[i].type != TokType::kRParen) {
        pred.arg_types.emplace_back(toks[i].text);
        ++i;
        if (toks[i].type == TokType::kComma) ++i;
      }
      auto added = program.AddPredicate(std::move(pred));
      return added.ok() ? Status::OK() : AtLine(line_no, added.status());
    }

    // Rule: optional leading numeric weight, then the formula. A trailing
    // '.' marks a hard rule.
    double weight = 0.0;
    bool has_weight = false;
    size_t start = 0;
    if (toks[0].type == TokType::kNumber) {
      // Disambiguate "a weight" from a formula starting with a numeric
      // constant: a weight is followed by an identifier or '!'.
      if (toks.size() > 1 && (toks[1].type == TokType::kIdent ||
                              toks[1].type == TokType::kBang)) {
        weight = std::strtod(std::string(toks[0].text).c_str(), nullptr);
        has_weight = true;
        start = 1;
      }
    }
    RuleParser rp(std::span<const Token>(toks).subspan(start), &program);
    bool hard = false;
    auto clause_result = rp.Parse(weight, &hard);
    if (!clause_result.ok()) return AtLine(line_no, clause_result.status());
    Clause clause = clause_result.TakeValue();
    clause.hard = hard;
    if (hard && has_weight) {
      return Status::ParseError(StrFormat(
          "line %d: hard rule (trailing '.') must not have a weight",
          line_no));
    }
    if (!hard && !has_weight) {
      return Status::ParseError(
          StrFormat("line %d: soft rule is missing a weight", line_no));
    }
    Status st = program.AddClause(std::move(clause));
    return st.ok() ? Status::OK() : AtLine(line_no, st);
  });
  if (!parsed.ok()) return parsed;
  return program;
}

Status ParseEvidence(std::string_view text, MlnProgram* program,
                     EvidenceDb* db) {
  SymbolTable& symbols = program->symbols();
  // Argument domains per predicate position, resolved on first use.
  std::vector<std::vector<DomainId>> arg_domains(program->num_predicates());
  std::vector<Token> toks;
  return ForEachLine(text, [&](int line_no, std::string_view line) {
    Status lexed = Tokenize(line, &toks);
    if (!lexed.ok()) return AtLine(line_no, lexed);
    if (toks.size() <= 1) return Status::OK();
    size_t i = 0;
    bool truth = true;
    if (toks[i].type == TokType::kBang) {
      truth = false;
      ++i;
    }
    if (toks[i].type != TokType::kIdent) {
      return Status::ParseError(
          StrFormat("line %d: expected predicate name", line_no));
    }
    const std::string_view name = toks[i].text;
    ++i;
    auto pid_result = program->FindPredicate(name);
    if (!pid_result.ok()) {
      return Status::ParseError(StrFormat("line %d: unknown predicate %s",
                                          line_no, std::string(name).c_str()));
    }
    const PredicateId pid = pid_result.value();
    const Predicate& pred = program->predicate(pid);
    std::vector<DomainId>& domains = arg_domains[pid];
    if (domains.size() != pred.arg_types.size()) {
      for (const std::string& type : pred.arg_types) {
        domains.push_back(symbols.DomainOf(type));
      }
    }
    if (toks[i].type != TokType::kLParen) {
      return Status::ParseError(StrFormat("line %d: expected '('", line_no));
    }
    ++i;
    GroundAtom atom;
    atom.pred = pid;
    atom.args.reserve(pred.arg_types.size());
    // Arguments: ')' or term {',' term} ')', then nothing but the end.
    if (toks[i].type != TokType::kRParen) {
      while (true) {
        if (toks[i].type != TokType::kIdent &&
            toks[i].type != TokType::kNumber) {
          return Status::ParseError(
              StrFormat("line %d: bad constant '%s'", line_no,
                        std::string(toks[i].text).c_str()));
        }
        if (atom.args.size() == domains.size()) {
          return Status::ParseError(
              StrFormat("line %d: too many arguments to %s", line_no,
                        pred.name.c_str()));
        }
        atom.args.push_back(
            symbols.Intern(toks[i].text, domains[atom.args.size()]));
        ++i;
        if (toks[i].type == TokType::kRParen) break;
        if (toks[i].type != TokType::kComma) {
          return Status::ParseError(StrFormat(
              "line %d: expected ',' or ')' in %s", line_no,
              pred.name.c_str()));
        }
        ++i;
      }
    }
    ++i;  // ')'
    if (toks[i].type != TokType::kEnd) {
      return Status::ParseError(
          StrFormat("line %d: unexpected '%s' after ')'", line_no,
                    std::string(toks[i].text).c_str()));
    }
    if (static_cast<int>(atom.args.size()) != pred.arity()) {
      return Status::ParseError(StrFormat(
          "line %d: %s expects %d args, got %zu", line_no, pred.name.c_str(),
          pred.arity(), atom.args.size()));
    }
    db->Add(std::move(atom), truth);
    return Status::OK();
  });
}

}  // namespace tuffy
