package repro.meta

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelper.forAllSeeded

import Scalar._

class ScalarSpec extends AnyFunSuite {

  test("long/long comparison") {
    assert(compare(LongV(1), LongV(2)).contains(-1))
    assert(compare(LongV(2), LongV(2)).contains(0))
    assert(compare(LongV(3), LongV(2)).contains(1))
  }

  test("long/double cross-family comparison is numeric") {
    assert(lt(LongV(1), DoubleV(1.5)).contains(true))
    assert(lt(DoubleV(1.5), LongV(2)).contains(true))
    assert(Scalar.eq(LongV(2), DoubleV(2.0)).contains(true))
  }

  test("string comparison is lexicographic") {
    assert(lt(StringV("Basecamp"), StringV("Unmarked")).contains(true))
    assert(lt(StringV("feet"), StringV("meters")).contains(true))
  }

  test("date comparison uses epoch days") {
    assert(lt(DateV(100), DateV(200)).contains(true))
    assert(Scalar.eq(DateV(100), DateV(100)).contains(true))
  }

  test("incomparable families return None") {
    assert(compare(LongV(1), StringV("a")).isEmpty)
    assert(compare(DateV(1), LongV(1)).isEmpty)
    assert(compare(BoolV(true), StringV("true")).isEmpty)
  }

  test("min/max pick the right endpoint") {
    assert(Scalar.min(LongV(1), LongV(2)).contains(LongV(1)))
    assert(Scalar.max(LongV(1), LongV(2)).contains(LongV(2)))
    assert(Scalar.min(StringV("a"), StringV("b")).contains(StringV("a")))
  }

  test("fromAny covers the supported JVM types") {
    assert(fromAny(3L).contains(LongV(3)))
    assert(fromAny(3).contains(LongV(3)))
    assert(fromAny(3.5).contains(DoubleV(3.5)))
    assert(fromAny(3.5f).contains(DoubleV(3.5)))
    assert(fromAny("x").contains(StringV("x")))
    assert(fromAny(true).contains(BoolV(true)))
    assert(fromAny(java.sql.Date.valueOf("1970-01-11")).contains(DateV(10)))
    assert(fromAny(java.time.LocalDate.ofEpochDay(42)).contains(DateV(42)))
    assert(fromAny(null).isEmpty)
    assert(fromAny(new Object).isEmpty)
  }

  val genScalarPair: Gen[(Scalar, Scalar)] = for {
    a <- Gen.chooseNum(-1000L, 1000L); b <- Gen.chooseNum(-1000L, 1000L)
    pair <- Gen.oneOf[(Scalar, Scalar)](
      (LongV(a), LongV(b)), (DoubleV(a * 0.5), DoubleV(b * 0.5)),
      (DateV(a.toInt), DateV(b.toInt)), (StringV(s"s$a"), StringV(s"s$b")))
  } yield pair

  test("comparison is antisymmetric and total within a family") {
    forAllSeeded(genScalarPair) { case (a, b) =>
      val ab = compare(a, b); val ba = compare(b, a)
      assert(ab.isDefined && ba.isDefined)
      assert(ab.get.sign == -ba.get.sign)
    }
  }

  /** Well-formed strings over units on both sides of the surrogate range,
    * BMP characters and supplementary ones.
    */
  private val genUnicode: Gen[String] = Gen.listOf(Gen.oneOf(
    Gen.oneOf(0x00, 0x41, 0x7F, 0x80, 0x7FF, 0x800, 0xD7FF, 0xE000, 0xFFFD, 0xFFFF),
    Gen.oneOf(0x10000, 0x1F600, 0x1F7FF, 0x10FFFF),
    Gen.choose(0, 0x10FFFF - 0x800).map(cp => if (cp >= 0xD800) cp + 0x800 else cp)))
    .map(cps => cps.take(4).map(cp => new String(Character.toChars(cp))).mkString)

  test("property: strings compare by code point, which is their UTF-8 byte order") {
    forAllSeeded(Gen.zip(genUnicode, genUnicode), n = 2000) { case (a, b) =>
      val utf8 = java.util.Arrays.compareUnsigned(
        a.getBytes(java.nio.charset.StandardCharsets.UTF_8), b.getBytes(java.nio.charset.StandardCharsets.UTF_8))
      assert(compareStrings(a, b).sign == utf8.sign, s"${a.map(_.toInt)} vs ${b.map(_.toInt)}")
      assert(compare(StringV(a), StringV(b)).map(_.sign).contains(utf8.sign))
    }
    // UTF-16 order puts U+1F600 (a surrogate pair) below U+FFFF.
    assert("\uD83D\uDE00".compareTo("\uFFFF") < 0)
    assert(compareStrings("\uD83D\uDE00", "\uFFFF") > 0)
    assert(lt(StringV("\uFFFF"), StringV("\uD83D\uDE00")).contains(true))
  }

  test("Tri Kleene logic truth table") {
    import Tri._
    assert((True && True) == True)
    assert((True && False) == False)
    assert((True && Unknown) == Unknown)
    assert((False && Unknown) == False)
    assert((True || Unknown) == True)
    assert((False || Unknown) == Unknown)
    assert((False || False) == False)
    assert(True.not == False)
    assert(False.not == True)
    assert(Unknown.not == Unknown)
    assert(!False.mayMatch && True.mayMatch && Unknown.mayMatch)
  }

  test("Tri double negation is identity") {
    for (t <- Seq(Tri.True, Tri.False, Tri.Unknown)) assert(t.not.not == t)
  }
}
