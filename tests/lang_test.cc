#include <gtest/gtest.h>

#include <string>

#include "lang/interp.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "lang/typecheck.h"
#include "test_util.h"

namespace dbpl::lang {
namespace {

using dbpl::testing::TempPath;

/// Runs a program and returns the values of its expression statements.
Result<std::vector<std::string>> RunValues(const std::string& src) {
  Interp interp;
  Result<Interp::Output> out = interp.Run(src);
  if (!out.ok()) return out.status();
  return out->values;
}

void ExpectOutputs(const std::string& src,
                   const std::vector<std::string>& expected) {
  Result<std::vector<std::string>> out = RunValues(src);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, expected) << src;
}

void ExpectStaticError(const std::string& src, StatusCode code) {
  Result<std::vector<std::string>> out = RunValues(src);
  ASSERT_FALSE(out.ok()) << src;
  EXPECT_EQ(out.status().code(), code) << out.status();
}

// ---------------------------------------------------------------------
// Lexer / parser
// ---------------------------------------------------------------------

TEST(LexerTest, TokenizesProgramFragment) {
  auto tokens = Lex("let d = dynamic 3; -- comment\nd;");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 7u);
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kLet);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kIdent);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kAssign);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kDynamic);
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kIntLit);
  EXPECT_EQ(tokens->back().kind, TokenKind::kEof);
}

TEST(LexerTest, StringsAndEscapes) {
  auto tokens = Lex("\"a\\nb\" 'J Doe'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "a\nb");
  EXPECT_EQ((*tokens)[1].text, "J Doe");
  EXPECT_FALSE(Lex("\"unterminated").ok());
  EXPECT_FALSE(Lex("\"bad \\q escape\"").ok());
}

TEST(LexerTest, TracksLineNumbers) {
  auto tokens = Lex("let\nx");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].span.line, 1);
  EXPECT_EQ((*tokens)[1].span.line, 2);
}

TEST(ParserTest, RejectsMalformedPrograms) {
  EXPECT_FALSE(Parse("let = 3;").ok());
  EXPECT_FALSE(Parse("let x = ;").ok());
  EXPECT_FALSE(Parse("3 +;").ok());
  EXPECT_FALSE(Parse("{a = 1").ok());
  EXPECT_FALSE(Parse("let x = 3").ok());  // missing semicolon
  EXPECT_FALSE(Parse("type T = {x: Unknown};").ok());
  EXPECT_FALSE(Parse("type T = Int; type T = Bool;").ok());
}

// ---------------------------------------------------------------------
// The paper's Amber fragments, verbatim (modulo surface syntax).
// ---------------------------------------------------------------------

TEST(PaperTest, DynamicCoerceExample) {
  // let d = dynamic 3; let i = coerce d to Int  -- i = 3
  ExpectOutputs(R"(
    let d = dynamic 3;
    let i = coerce d to Int;
    i;
  )",
                {"3"});
  // let s = coerce d to String  -- raises a run-time exception
  ExpectStaticError(R"(
    let d = dynamic 3;
    coerce d to String;
  )",
                    StatusCode::kTypeError);
  // Using an integer operation on d directly is a *static* type error.
  ExpectStaticError("let d = dynamic 3; d + 1;", StatusCode::kTypeError);
}

TEST(PaperTest, TypeofRevealsCarriedType) {
  ExpectOutputs(R"(
    let d = dynamic {Name = "J Doe"};
    typeof d;
  )",
                {"\"{Name: String}\""});
}

TEST(PaperTest, EmployeeIsInferredSubtypeOfPerson) {
  // Amber: "it would still be inferred, from the structure of the
  // definition, that Employee is a subtype of Person".
  ExpectOutputs(R"(
    type Person = {Name: String, Address: {City: String}};
    type Employee = {Name: String, Address: {City: String},
                     Empno: Int, Dept: String};
    let e : Employee = {Name = "J Doe", Address = {City = "Austin"},
                        Empno = 1234, Dept = "Sales"};
    let p : Person = e;    -- subsumption
    p.Name;
  )",
                {"\"J Doe\""});
  // The converse requires information the value lacks.
  ExpectStaticError(R"(
    type Person = {Name: String};
    type Employee = {Name: String, Empno: Int};
    let p : Person = {Name = "J Doe"};
    let e : Employee = p;
  )",
                    StatusCode::kTypeError);
}

TEST(PaperTest, GenericGetDerivesExtents) {
  // The database is a list of dynamics; Get[Employee] extracts every
  // value whose type is a subtype of Employee.
  ExpectOutputs(R"(
    type Person = {Name: String};
    type Employee = {Name: String, Empno: Int};
    let db = database;
    insert {Name = "p1"} into db;
    insert {Name = "e1", Empno = 1} into db;
    insert {Name = "e2", Empno = 2} into db;
    insert 42 into db;
    length(get Person from db);
    length(get Employee from db);
    length(get Int from db);
  )",
                {"3", "2", "1"});
}

TEST(PaperTest, GetResultIsTypedExistentially) {
  Interp interp;
  auto out = interp.Run(R"(
    type Person = {Name: String};
    let db = database;
    insert {Name = "e", Empno = 1} into db;
    get Person from db;
  )");
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->types.size(), 1u);
  EXPECT_EQ(out->types[0], "List[Exists t <= {Name: String}. t]");
}

TEST(PaperTest, GetExtentContainment) {
  // getPersons always returns a larger list than getEmployees, and
  // fields guaranteed by the bound are accessible on the results.
  ExpectOutputs(R"(
    type Person = {Name: String};
    type Employee = {Name: String, Empno: Int};
    let db = database;
    insert {Name = "p"} into db;
    insert {Name = "e", Empno = 7} into db;
    let persons = get Person from db;
    let employees = get Employee from db;
    length(persons) >= length(employees);
    map(fun (p: Person) : String => p.Name, persons);
  )",
                {"true", "[\"p\", \"e\"]"});
}

TEST(PaperTest, RecordJoinExample) {
  // {Name='J Doe'} ⊔ {Emp_no=1234}, and the o2 ⊔ o3 example.
  ExpectOutputs(R"(
    let a = {Name = "J Doe"} join {Emp_no = 1234};
    a;
    let o2 = {Name = "J Doe", Address = {City = "Austin"}, Emp_no = 1234};
    let o3 = {Name = "J Doe", Address = {City = "Austin", Zip = 78759}};
    o2 join o3;
  )",
                {"{Emp_no = 1234, Name = \"J Doe\"}",
                 "{Address = {City = \"Austin\", Zip = 78759}, "
                 "Emp_no = 1234, Name = \"J Doe\"}"});
}

TEST(PaperTest, JoinOfContradictoryRecordsFails) {
  // Statically contradictory: {Name: String-valued "J Doe"} vs Int.
  ExpectStaticError("{Name = \"J Doe\"} join {Name = 3};",
                    StatusCode::kTypeError);
  // Type-compatible but value-contradictory: a run-time Inconsistent.
  Result<std::vector<std::string>> out =
      RunValues("{Name = \"J Doe\"} join {Name = \"K Smith\"};");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInconsistent);
}

TEST(PaperTest, ExternInternRoundTrip) {
  std::string dir = TempPath("externintern");
  {
    Interp writer(dir);
    auto out = writer.Run(R"(
      type DB = List[{Name: String}];
      let d : DB = [{Name = "Alice"}, {Name = "Bob"}];
      extern d as "DBFile";
    )");
    ASSERT_TRUE(out.ok()) << out.status();
  }
  {
    Interp reader(dir);
    auto out = reader.Run(R"(
      type DB = List[{Name: String}];
      let x = intern "DBFile";
      let d = coerce x to DB;
      length(d);
      head(d).Name;
    )");
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(out->values, (std::vector<std::string>{"2", "\"Alice\""}));
  }
  {
    // Coercing the handle to the wrong type fails, per the paper.
    Interp reader(dir);
    auto out = reader.Run(R"(
      let x = intern "DBFile";
      coerce x to Int;
    )");
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kTypeError);
  }
}

TEST(PaperTest, BillOfMaterialsTotalCost) {
  // The paper's TotalCost function over a parts hierarchy (recursive
  // program over a DAG-shaped value).
  ExpectOutputs(R"(
    type Component = {SubPart: {IsBase: Bool, PurchasePrice: Real,
                                ManufCost: Real,
                                Components: List[{Qty: Real}]},
                      Qty: Real};
    let bolt = {IsBase = true, PurchasePrice = 0.5, ManufCost = 0.0,
                Components = []};
    let plate = {IsBase = true, PurchasePrice = 2.0, ManufCost = 0.0,
                 Components = []};
    let rec totalCost(p: {IsBase: Bool, PurchasePrice: Real,
                          ManufCost: Real}) : Real =
      if p.IsBase then p.PurchasePrice else p.ManufCost;
    totalCost(bolt) + totalCost(plate);
  )",
                {"2.5"});
}

TEST(PaperTest, RecursiveTotalCostOverComponents) {
  // Full recursive version with fold over the component list. The
  // sub-assembly uses each part more than once (the DAG case).
  ExpectOutputs(R"(
    type Part = {IsBase: Bool, PurchasePrice: Real, ManufCost: Real,
                 Components: List[{SubPart: {IsBase: Bool,
                                             PurchasePrice: Real,
                                             ManufCost: Real,
                                             Components: List[Bottom]},
                                   Qty: Real}]};
    let bolt = {IsBase = true, PurchasePrice = 0.5, ManufCost = 0.0,
                Components = []};
    let nut  = {IsBase = true, PurchasePrice = 0.25, ManufCost = 0.0,
                Components = []};
    let rec totalCost(p: Part) : Real =
      if p.IsBase then p.PurchasePrice
      else p.ManufCost +
           sum(map(fun (q: {SubPart: {IsBase: Bool, PurchasePrice: Real,
                                      ManufCost: Real,
                                      Components: List[Bottom]},
                            Qty: Real}) : Real =>
                     q.Qty * totalCost(q.SubPart),
                   p.Components));
    let clamp = {IsBase = false, PurchasePrice = 0.0, ManufCost = 1.0,
                 Components = [{SubPart = bolt, Qty = 4.0},
                               {SubPart = nut, Qty = 4.0}]};
    totalCost(clamp);
  )",
                {"4"});
}

// ---------------------------------------------------------------------
// Language semantics beyond the paper fragments.
// ---------------------------------------------------------------------

TEST(LangTest, ArithmeticAndPrecedence) {
  ExpectOutputs("1 + 2 * 3;", {"7"});
  ExpectOutputs("(1 + 2) * 3;", {"9"});
  ExpectOutputs("10 / 3;", {"3"});
  ExpectOutputs("1.5 + 2.25;", {"3.75"});
  ExpectOutputs("\"foo\" + \"bar\";", {"\"foobar\""});
  ExpectOutputs("-3 + 1;", {"-2"});
  ExpectOutputs("1 < 2 and not (2 < 1);", {"true"});
  ExpectOutputs("false or 3 == 3;", {"true"});
}

TEST(LangTest, MixedArithmeticIsAStaticError) {
  ExpectStaticError("1 + 2.0;", StatusCode::kTypeError);
  ExpectStaticError("\"a\" + 1;", StatusCode::kTypeError);
  ExpectStaticError("1 < \"a\";", StatusCode::kTypeError);
  ExpectStaticError("if 1 then 2 else 3;", StatusCode::kTypeError);
  ExpectStaticError("not 3;", StatusCode::kTypeError);
}

TEST(LangTest, DivisionByZeroIsRuntimeError) {
  Result<std::vector<std::string>> out = RunValues("1 / 0;");
  ASSERT_FALSE(out.ok());
}

TEST(LangTest, LetInAndShadowing) {
  ExpectOutputs("let x = 1 in let x = x + 1 in x * 10;", {"20"});
  ExpectStaticError("y + 1;", StatusCode::kTypeError);
}

TEST(LangTest, FunctionsAndHigherOrder) {
  ExpectOutputs(R"(
    let inc = fun (x: Int) : Int => x + 1;
    let twice = fun (f: Int -> Int, x: Int) : Int => f(f(x));
    twice(inc, 40);
  )",
                {"42"});
  ExpectStaticError("let f = fun (x: Int) : Int => x; f(true);",
                    StatusCode::kTypeError);
  ExpectStaticError("let f = fun (x: Int) : Bool => x;",
                    StatusCode::kTypeError);
}

TEST(LangTest, FunctionSubtypingAtCallSites) {
  // A function on Persons accepts an Employee argument.
  ExpectOutputs(R"(
    let name = fun (p: {Name: String}) : String => p.Name;
    name({Name = "J Doe", Empno = 1});
  )",
                {"\"J Doe\""});
}

TEST(LangTest, RecursionFactorial) {
  ExpectOutputs(R"(
    let rec fact(n: Int) : Int = if n <= 1 then 1 else n * fact(n - 1);
    fact(10);
  )",
                {"3628800"});
}

TEST(LangTest, ListBuiltins) {
  ExpectOutputs("head([1, 2, 3]);", {"1"});
  ExpectOutputs("tail([1, 2, 3]);", {"[2, 3]"});
  ExpectOutputs("cons(0, [1]);", {"[0, 1]"});
  ExpectOutputs("length([]);", {"0"});
  ExpectOutputs("isempty([]);", {"true"});
  ExpectOutputs("nth([10, 20], 1);", {"20"});
  ExpectOutputs("sum([1, 2, 3]);", {"6"});
  ExpectOutputs("sum([1.5, 2.5]);", {"4"});
  ExpectOutputs("concat([1], [2, 3]);", {"[1, 2, 3]"});
  ExpectOutputs("map(fun (x: Int) : Int => x * x, [1, 2, 3]);",
                {"[1, 4, 9]"});
  ExpectOutputs("filter(fun (x: Int) : Bool => x > 1, [1, 2, 3]);",
                {"[2, 3]"});
  ExpectOutputs(
      "fold(fun (a: Int, b: Int) : Int => a + b, 100, [1, 2, 3]);",
      {"106"});
  Result<std::vector<std::string>> out = RunValues("head([]);");
  ASSERT_FALSE(out.ok());  // runtime error, typed List[Bottom]
}

TEST(LangTest, SetsDeduplicateAndConvert) {
  ExpectOutputs("{| 3, 1, 3, 2 |};", {"{|1, 2, 3|}"});
  ExpectOutputs("length({| 1, 1, 2 |});", {"2"});
  ExpectOutputs("elements({| 2, 1 |});", {"[1, 2]"});
  ExpectOutputs("setof([1, 1, 2]);", {"{|1, 2|}"});
  ExpectOutputs("{| {Name = \"a\"} |} join {| {Dept = \"d\"} |};",
                {"{|{Dept = \"d\", Name = \"a\"}|}"});
}

TEST(LangTest, InconsistentSetJoinIsStaticallyEmptyNotAnError) {
  // A set join over element types with meet ⊥ is still well-typed
  // (the result, always {| |}, inhabits Set[Bottom]); the lint pass
  // DL003 warns about it instead of the checker rejecting it. Record
  // joins with contradictory types remain hard type errors.
  ExpectOutputs("{| 1, 2 |} join {| \"a\" |};", {"{||}"});
  ExpectStaticError("{Name = \"x\"} join {Name = 1};", StatusCode::kTypeError);
}

TEST(LangTest, BuiltinsAreNotFirstClass) {
  ExpectStaticError("let h = head;", StatusCode::kTypeError);
}

TEST(LangTest, IfBranchesLub) {
  // Lub of Employee and Student is their common structure.
  ExpectOutputs(R"(
    let v = if true then {Name = "a", Empno = 1}
            else {Name = "b", StudentId = 2};
    v.Name;
  )",
                {"\"a\""});
  ExpectStaticError(R"(
    let v = if true then {Name = "a", Empno = 1}
            else {Name = "b", StudentId = 2};
    v.Empno;
  )",
                    StatusCode::kTypeError);
}

TEST(LangTest, InsertRequiresDatabase) {
  ExpectStaticError("insert 1 into 2;", StatusCode::kTypeError);
  ExpectStaticError("get Int from 2;", StatusCode::kTypeError);
}

TEST(LangTest, DatabaseIsSharedAndMutable) {
  ExpectOutputs(R"(
    let db = database;
    let alias = db;
    insert 1 into alias;
    insert 2 into db;
    length(get Int from db);
  )",
                {"2"});
}

TEST(LangTest, DynamicCarriesStaticType) {
  // The dynamic carries the *static* type of its operand: an Employee
  // value declared as a Person is retrieved by Get[Person] but not
  // Get[Employee] — the declaration, not the representation, governs.
  ExpectOutputs(R"(
    type Person = {Name: String};
    type Employee = {Name: String, Empno: Int};
    let e : Person = {Name = "x", Empno = 1};
    let db = database;
    insert e into db;
    length(get Person from db);
    length(get Employee from db);
  )",
                {"1", "0"});
}

TEST(LangTest, IncrementalRunsShareGlobals) {
  Interp interp;
  ASSERT_TRUE(interp.RunIncremental("let x = 40;").ok());
  auto out = interp.RunIncremental("x + 2;");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->values, (std::vector<std::string>{"42"}));
}

TEST(LangTest, GlobalLookup) {
  Interp interp;
  ASSERT_TRUE(interp.Run("let x = {A = 1};").ok());
  auto v = interp.Global("x");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->ToString(), "{A = 1}");
  EXPECT_FALSE(interp.Global("nope").ok());
}

TEST(LangTest, VariantConstructionAndCase) {
  ExpectOutputs(R"(
    let classify = fun (r: <ok: Int | err: String>) : String =>
      case r of ok(n) => "fine" | err(msg) => msg end;
    classify(<ok = 3>);
    classify(<err = "boom">);
  )",
                {"\"fine\"", "\"boom\""});
  // The payload is bound in the arm.
  ExpectOutputs(R"(
    case <ok = 41> of ok(n) => n + 1 end;
  )",
                {"42"});
}

TEST(LangTest, CaseIsExhaustivenessChecked) {
  // Missing arm: static error.
  ExpectStaticError(R"(
    let f = fun (r: <ok: Int | err: String>) : Int =>
      case r of ok(n) => n end;
  )",
                    StatusCode::kTypeError);
  // Unknown arm: static error.
  ExpectStaticError("case <ok = 1> of ok(n) => n | bogus(x) => 0 end;",
                    StatusCode::kTypeError);
  // Duplicate arm: static error.
  ExpectStaticError("case <ok = 1> of ok(n) => n | ok(m) => m end;",
                    StatusCode::kTypeError);
  // Non-variant scrutinee: static error.
  ExpectStaticError("case 3 of ok(n) => n end;", StatusCode::kTypeError);
}

TEST(LangTest, VariantSubsumption) {
  // <ok = 3> : <ok: Int> ≤ <ok: Int | err: String>.
  ExpectOutputs(R"(
    let r : <ok: Int | err: String> = <ok = 3>;
    case r of ok(n) => n | err(s) => 0 end;
  )",
                {"3"});
}

TEST(LangTest, RecursiveVariantListViaCase) {
  // An IntList as an equi-recursive variant (Mu type), consumed by
  // recursion + case — the full Cardelli-style list encoding.
  ExpectOutputs(R"(
    type IntList = Mu l. <nil: {} | cons: {head: Int, tail: l}>;
    let empty : IntList = <nil = {}>;
    let l2 : IntList = <cons = {head = 2, tail = empty}>;
    let l12 : IntList = <cons = {head = 1, tail = l2}>;
    let rec total(l: IntList) : Int =
      case l of
        nil(u) => 0
      | cons(c) => c.head + total(c.tail)
      end;
    total(l12);
  )",
                {"3"});
}

TEST(LangTest, InformationOrderingBuiltins) {
  // The paper's ⊑, consistency and ⊓, reachable from programs.
  ExpectOutputs("lesseq({Name = \"J\"}, {Name = \"J\", Empno = 1});",
                {"true"});
  ExpectOutputs("lesseq({Name = \"J\", Empno = 1}, {Name = \"J\"});",
                {"false"});
  ExpectOutputs("consistent({Name = \"J\"}, {Empno = 1});", {"true"});
  ExpectOutputs("consistent({Name = \"J\"}, {Name = \"K\"});", {"false"});
  ExpectOutputs("meet({Name = \"J\", Empno = 1}, {Name = \"J\", Dept = \"S\"});",
                {"{Name = \"J\"}"});
  ExpectStaticError("lesseq(1, 2, 3);", StatusCode::kTypeError);
}

TEST(LangTest, ExternWithoutStoreFails) {
  Interp interp;  // no persist dir
  auto out = interp.Run("extern 1 as \"h\";");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace dbpl::lang
