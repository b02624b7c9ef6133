#ifndef TUFFY_MLN_PARSER_H_
#define TUFFY_MLN_PARSER_H_

#include <string_view>

#include "mln/model.h"
#include "util/result.h"

namespace tuffy {

/// Parses an MLN program in Alchemy-flavored syntax:
///
///   // comment
///   *refers(paper, paper)          // '*' marks a closed-world predicate
///   cat(paper, category)
///   5   cat(p, c1), cat(p, c2) => c1 = c2
///   1   wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
///   -1  cat(p, "Networking")
///   paper(p, u) => EXIST x wrote(x, p).   // trailing '.' = hard rule
///
/// Rules are converted to clausal form: body atoms are negated, the head
/// disjunction is kept, and (dis)equality disjuncts become
/// EqualityConstraints. Identifiers starting with a lowercase letter are
/// variables; quoted strings, capitalized identifiers, and numbers are
/// constants.
Result<MlnProgram> ParseProgram(std::string_view text);

/// Parses evidence lines into `db`:
///
///   wrote(Joe, P1)
///   !cat(P3, "AI")     // negative evidence
///
/// Constants are interned into the program's symbol table using the
/// declared argument types of each predicate. Rows apply in text order,
/// later rows overwriting earlier ones. A malformed row fails with a
/// line-numbered ParseError; the rows before it stay applied. The full
/// grammar is in docs/GROUNDING.md.
Status ParseEvidence(std::string_view text, MlnProgram* program,
                     EvidenceDb* db);

}  // namespace tuffy

#endif  // TUFFY_MLN_PARSER_H_
