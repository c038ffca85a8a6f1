package repro.mpt

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import org.apache.spark.sql.types._

import repro.PropHelper.forAllSeeded
import repro.meta.Scalar

class MptCodecSpec extends AnyFunSuite {

  test("escape/unescape round trips special characters") {
    for (s <- Seq("plain", "tab\there", "nl\nhere", "back\\slash", "\r", "", "a\tb\nc\\d"))
      assert(MptSchema.unescape(MptSchema.escape(s)) == s)
  }

  test("escaped strings contain no raw separators") {
    for (s <- Seq("tab\there", "nl\nhere", "mix\t\n\\"))
      assert(!MptSchema.escape(s).exists(c => c == '\t' || c == '\n'))
  }

  test("field codec round trips every supported type") {
    import Scalar._
    val cases: Seq[(Scalar, DataType)] = Seq(
      (LongV(42), LongType), (LongV(-7), IntegerType),
      (DoubleV(3.25), DoubleType), (DoubleV(-0.0), DoubleType),
      (StringV("hello\tworld"), StringType), (StringV(""), StringType),
      (DateV(12345), DateType), (BoolV(true), BooleanType), (null, LongType))
    cases.foreach { case (v, dt) =>
      assert(MptSchema.decodeField(MptSchema.encodeField(v), dt) == v)
    }
  }

  test("property: arbitrary strings survive the codec") {
    forAllSeeded(Gen.asciiStr, n = 300) { s =>
      assert(MptSchema.decodeField(MptSchema.encodeField(Scalar.StringV(s)), StringType) ==
             Scalar.StringV(s))
    }
  }

  test("null marker is distinguishable from the literal string") {
    val lit = Scalar.StringV("\\N")
    val enc = MptSchema.encodeField(lit)
    // The literal backslash is escaped, so it differs from the null marker.
    assert(enc != MptSchema.NullField)
    assert(MptSchema.decodeField(enc, StringType) == lit)
  }

  test("unsupported schema types are rejected up front") {
    val bad = StructType(Seq(StructField("m", MapType(StringType, LongType))))
    intercept[IllegalArgumentException](MptSchema.validate(bad))
  }

  test("type names round trip") {
    for (dt <- MptSchema.supportedTypes)
      assert(MptSchema.typeOf(MptSchema.typeName(dt)) == dt)
  }
}
