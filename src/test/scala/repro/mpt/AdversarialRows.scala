package repro.mpt

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import org.scalacheck.Gen

import repro.meta.Scalar

/** Random tables of every mpt column type, drawn from the values a codec or
  * an evaluator gets wrong first: ±0.0, NaN, ±Inf, integral extremes,
  * supplementary characters, empty strings, the manifest codec's special
  * characters and its NULL marker, and an all-null column.
  */
object AdversarialRows {
  val schema: StructType = StructType(Seq(
    StructField("id", LongType),
    StructField("l", LongType),
    StructField("i", IntegerType),
    StructField("d", DoubleType),
    StructField("s", StringType),
    StructField("dt", DateType),
    StructField("b", BooleanType),
    StructField("z", LongType))) // always NULL

  val longs: Gen[Long] = Gen.frequency(
    3 -> Gen.oneOf(Long.MinValue, Long.MaxValue, Long.MinValue + 1, Long.MaxValue - 1, 0L, -1L, 1L),
    5 -> Gen.choose(-20L, 20L),
    2 -> Gen.choose(Long.MinValue, Long.MaxValue))
  val ints: Gen[Int] = Gen.frequency(
    3 -> Gen.oneOf(Int.MinValue, Int.MaxValue, 0, -1, 1),
    5 -> Gen.choose(-20, 20),
    2 -> Gen.choose(Int.MinValue, Int.MaxValue))
  val doubles: Gen[Double] = Gen.frequency(
    5 -> Gen.oneOf(0.0, -0.0, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity,
                   Double.MinValue, Double.MaxValue, Double.MinPositiveValue, 1.5, -1.5),
    5 -> Gen.choose(-20.0, 20.0))
  val strings: Gen[String] = Gen.frequency(
    5 -> Gen.oneOf("", "\\N", "\\", "\t", "\n", "\r", "a\tb\nc\\d", "N", "a", "ab", "b",
                   "\uD83D\uDE00", "a\uD83D\uDE00", "\uFFFF", "\uE000", "\u00e9", "\u00fc\u0000"),
    3 -> Gen.listOfN(3, Gen.oneOf('a', 'b', '\t', '\\', '\u00e9', '\uFFFF')).map(_.mkString),
    2 -> Gen.listOf(Gen.oneOf(Gen.choose(0x20, 0x7e), Gen.choose(0x80, 0xd7ff), Gen.choose(0x10000, 0x10ffff)))
           .map(cps => new String(cps.toArray, 0, cps.length)))
  val dates: Gen[Int] = Gen.frequency(5 -> Gen.choose(-25000, 47000), 5 -> Gen.choose(10950, 10970))
  val booleans: Gen[Boolean] = Gen.oneOf(true, false)

  private def nullable[T](g: Gen[T]): Gen[Any] = Gen.frequency(1 -> Gen.const(null), 4 -> g)

  /** Row `id` of a random table; `id` is unique and never NULL. */
  def row(id: Long): Gen[Row] = for {
    l <- nullable(longs); i <- nullable(ints); d <- nullable(doubles); s <- nullable(strings)
    dt <- nullable(dates.map(days => java.sql.Date.valueOf(java.time.LocalDate.ofEpochDay(days.toLong))))
    b <- nullable(booleans)
  } yield Row(id, l, i, d, s, dt, b, null)

  def table(n: Int): Gen[Seq[Row]] = Gen.sequence[Seq[Row], Row]((0 until n).map(k => row(k.toLong)))
  def rows(maxRows: Int): Gen[Seq[Row]] = Gen.choose(0, maxRows).flatMap(table)

  def frame(spark: SparkSession, rows: Seq[Row], slices: Int): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(rows, slices), schema)

  /** Row values with the exact double bits and dates as epoch days, so
    * `-0.0 != 0.0` and NaN equals NaN.
    */
  def canonical(r: Row): Seq[Any] = r.toSeq.map {
    case d: Double        => ("double", java.lang.Double.doubleToLongBits(d))
    case d: java.sql.Date => ("date", d.toLocalDate.toEpochDay)
    case v                => v
  }

  /** A source row's values as [[repro.core.PExprEval]] sees them. */
  def lookup(r: Row): String => Option[Scalar] =
    name => if (schema.fieldNames.contains(name)) Scalar.fromAny(r.get(schema.fieldIndex(name))) else None
}
