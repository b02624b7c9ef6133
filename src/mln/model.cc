#include "mln/model.h"

#include <algorithm>

#include "util/string_util.h"

namespace tuffy {

// ------------------------------------------------------------ SymbolTable

DomainId SymbolTable::DomainOf(std::string_view type) {
  auto it = domain_ids_.find(type);
  if (it != domain_ids_.end()) return it->second;
  const DomainId id = static_cast<DomainId>(domains_.size());
  domain_ids_.emplace(type, id);
  domains_.emplace_back();
  return id;
}

namespace {

size_t HashOf(std::string_view symbol) {
  return std::hash<std::string_view>{}(symbol);
}

/// A filled index slot: the hash's upper half as a tag, over id + 1.
uint64_t FilledSlot(size_t hash, size_t id) {
  return (static_cast<uint64_t>(hash) >> 32 << 32) | (id + 1);
}

ConstantId SlotId(uint64_t slot) {
  return static_cast<ConstantId>(static_cast<uint32_t>(slot) - 1);
}

}  // namespace

size_t SymbolTable::SlotOf(std::string_view symbol, size_t hash) const {
  const size_t mask = slots_.size() - 1;
  const uint64_t tag = static_cast<uint64_t>(hash) >> 32;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == 0) return i;
    if ((slot >> 32) == tag && names_[SlotId(slot)] == symbol) return i;
  }
}

void SymbolTable::Place(ConstantId id) {
  const size_t hash = HashOf(names_[id]);
  slots_[SlotOf(names_[id], hash)] = FilledSlot(hash, id);
}

ConstantId SymbolTable::Intern(std::string_view symbol, DomainId domain) {
  ConstantId id = Find(symbol);
  if (id < 0) {
    id = static_cast<ConstantId>(names_.size());
    names_.emplace_back(symbol);
    if (names_.size() * 2 > slots_.size()) {
      // Double the table (64 slots at first) and re-place every symbol.
      slots_.assign(std::max<size_t>(64, slots_.size() * 2), 0);
      for (size_t k = 0; k < names_.size(); ++k) {
        Place(static_cast<ConstantId>(k));
      }
    } else {
      Place(id);
    }
  }
  DomainSet& d = domains_[domain];
  const size_t word = static_cast<size_t>(id) >> 6;
  const uint64_t bit = uint64_t{1} << (id & 63);
  if (word >= d.bits.size()) d.bits.resize(word + 1, 0);
  if ((d.bits[word] & bit) == 0) {
    d.bits[word] |= bit;
    d.members.push_back(id);
  }
  return id;
}

ConstantId SymbolTable::Find(std::string_view symbol) const {
  if (slots_.empty()) return -1;
  const uint64_t slot = slots_[SlotOf(symbol, HashOf(symbol))];
  return slot == 0 ? -1 : SlotId(slot);
}

const std::vector<ConstantId>& SymbolTable::Domain(
    std::string_view type) const {
  static const std::vector<ConstantId> kEmpty;
  auto it = domain_ids_.find(type);
  return it == domain_ids_.end() ? kEmpty : domains_[it->second].members;
}

// ------------------------------------------------------------- MlnProgram

Result<PredicateId> MlnProgram::AddPredicate(Predicate pred) {
  if (predicate_ids_.count(pred.name) > 0) {
    return Status::AlreadyExists(
        StrFormat("predicate %s", pred.name.c_str()));
  }
  PredicateId id = static_cast<PredicateId>(predicates_.size());
  pred.id = id;
  predicate_ids_[pred.name] = id;
  predicates_.push_back(std::move(pred));
  return id;
}

Result<PredicateId> MlnProgram::FindPredicate(std::string_view name) const {
  auto it = predicate_ids_.find(name);
  if (it == predicate_ids_.end()) {
    return Status::NotFound(
        StrFormat("predicate %s", std::string(name).c_str()));
  }
  return it->second;
}

Status MlnProgram::AddClause(Clause clause) {
  // Resolve variable types from the predicate signatures; check arity.
  clause.var_types.assign(clause.num_vars, "");
  for (const Literal& lit : clause.literals) {
    if (lit.pred < 0 || lit.pred >= static_cast<PredicateId>(predicates_.size())) {
      return Status::InvalidArgument("literal references unknown predicate");
    }
    const Predicate& pred = predicates_[lit.pred];
    if (static_cast<int>(lit.args.size()) != pred.arity()) {
      return Status::InvalidArgument(
          StrFormat("predicate %s expects %d args, got %zu",
                    pred.name.c_str(), pred.arity(), lit.args.size()));
    }
    for (size_t i = 0; i < lit.args.size(); ++i) {
      const Term& t = lit.args[i];
      if (!t.is_var) continue;
      if (t.id < 0 || t.id >= clause.num_vars) {
        return Status::InvalidArgument(
            StrFormat("variable id %d out of range", t.id));
      }
      std::string& vt = clause.var_types[t.id];
      if (vt.empty()) {
        vt = pred.arg_types[i];
      } else if (vt != pred.arg_types[i]) {
        return Status::InvalidArgument(StrFormat(
            "variable %s used with types %s and %s",
            (static_cast<size_t>(t.id) < clause.var_names.size()
                 ? clause.var_names[t.id].c_str()
                 : "?"),
            vt.c_str(), pred.arg_types[i].c_str()));
      }
    }
  }
  // Variables appearing only in equality constraints have no type source.
  for (const EqualityConstraint& eq : clause.equalities) {
    for (const Term* t : {&eq.lhs, &eq.rhs}) {
      if (t->is_var && (t->id < 0 || t->id >= clause.num_vars)) {
        return Status::InvalidArgument("equality variable out of range");
      }
      if (t->is_var && clause.var_types[t->id].empty()) {
        return Status::InvalidArgument(
            "equality variable does not appear in any literal");
      }
    }
  }
  if (clause.literals.empty()) {
    return Status::InvalidArgument("clause has no literals");
  }
  // Every variable must be typed, i.e. appear in at least one literal;
  // an unused variable would have no domain to range over.
  for (VarId v = 0; v < clause.num_vars; ++v) {
    if (clause.var_types[v].empty()) {
      return Status::InvalidArgument(StrFormat(
          "variable %s does not appear in any literal",
          static_cast<size_t>(v) < clause.var_names.size()
              ? clause.var_names[v].c_str()
              : "?"));
    }
  }
  if (clause.rule_id < 0) clause.rule_id = static_cast<int>(clauses_.size());
  clauses_.push_back(std::move(clause));
  return Status::OK();
}

std::string MlnProgram::ToString() const {
  std::string out;
  for (const Predicate& p : predicates_) {
    if (p.closed_world) out += "*";
    out += p.name + "(";
    for (int i = 0; i < p.arity(); ++i) {
      if (i > 0) out += ", ";
      out += p.arg_types[i];
    }
    out += ")\n";
  }
  for (const Clause& c : clauses_) {
    if (!c.hard) {
      out += StrFormat("%g ", c.weight);
    }
    if (!c.existential_vars.empty()) {
      out += "EXIST ";
      for (size_t i = 0; i < c.existential_vars.size(); ++i) {
        if (i > 0) out += ", ";
        VarId v = c.existential_vars[i];
        out += (static_cast<size_t>(v) < c.var_names.size()
                    ? c.var_names[v]
                    : StrFormat("v%d", v));
      }
      out += " ";
    }
    for (size_t i = 0; i < c.literals.size(); ++i) {
      if (i > 0) out += " v ";
      const Literal& lit = c.literals[i];
      if (!lit.positive) out += "!";
      out += predicates_[lit.pred].name + "(";
      for (size_t j = 0; j < lit.args.size(); ++j) {
        if (j > 0) out += ", ";
        const Term& t = lit.args[j];
        if (t.is_var) {
          out += (static_cast<size_t>(t.id) < c.var_names.size()
                      ? c.var_names[t.id]
                      : StrFormat("v%d", t.id));
        } else {
          out += symbols_.SymbolName(t.id);
        }
      }
      out += ")";
    }
    for (const EqualityConstraint& eq : c.equalities) {
      out += " v ";
      auto term_str = [&](const Term& t) {
        return t.is_var ? (static_cast<size_t>(t.id) < c.var_names.size()
                               ? c.var_names[t.id]
                               : StrFormat("v%d", t.id))
                        : symbols_.SymbolName(t.id);
      };
      out += term_str(eq.lhs);
      out += eq.equal ? " = " : " != ";
      out += term_str(eq.rhs);
    }
    if (c.hard) out += ".";
    out += "\n";
  }
  return out;
}

// -------------------------------------------------------------- EvidenceDb

void EvidenceDb::Add(GroundAtom atom, bool truth) {
  if (listener_ == nullptr) {
    truth_[std::move(atom)] = truth;
    return;
  }
  auto [it, inserted] = truth_.try_emplace(std::move(atom), truth);
  const bool had_old = !inserted;
  const bool old_truth = it->second;
  it->second = truth;
  listener_->OnEvidenceSet(it->first, truth, had_old, old_truth);
}

bool EvidenceDb::Remove(const GroundAtom& atom) {
  auto it = truth_.find(atom);
  if (it == truth_.end()) return false;
  const bool old_truth = it->second;
  truth_.erase(it);
  if (listener_ != nullptr) listener_->OnEvidenceErased(atom, old_truth);
  return true;
}

Truth EvidenceDb::Lookup(const MlnProgram& program,
                         const GroundAtom& atom) const {
  auto it = truth_.find(atom);
  if (it != truth_.end()) return it->second ? Truth::kTrue : Truth::kFalse;
  if (program.predicate(atom.pred).closed_world) return Truth::kFalse;
  return Truth::kUnknown;
}

Result<TrainingSplit> SplitEvidenceForLearning(
    const MlnProgram& program, const EvidenceDb& full,
    const std::vector<std::string>& query_predicates) {
  if (query_predicates.empty()) {
    return Status::InvalidArgument("no query predicates to learn over");
  }
  std::vector<uint8_t> is_query(program.num_predicates(), 0);
  for (const std::string& name : query_predicates) {
    TUFFY_ASSIGN_OR_RETURN(PredicateId pid, program.FindPredicate(name));
    if (program.predicate(pid).closed_world) {
      return Status::InvalidArgument(StrFormat(
          "query predicate %s is closed-world: its unknown atoms would "
          "resolve to false during grounding and never be learnable",
          name.c_str()));
    }
    is_query[pid] = 1;
  }
  TrainingSplit split;
  for (const auto& [atom, truth] : full.entries()) {
    if (is_query[atom.pred]) {
      split.labels.Add(atom, truth);
    } else {
      split.evidence.Add(atom, truth);
    }
  }
  return split;
}

}  // namespace tuffy
