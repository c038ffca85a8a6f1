package repro.mpt

import org.scalatest.funsuite.AnyFunSuite
import org.apache.spark.sql.types._

class MptCodecSpec extends AnyFunSuite {

  test("unsupported schema types are rejected up front") {
    val bad = StructType(Seq(StructField("m", MapType(StringType, LongType))))
    intercept[IllegalArgumentException](MptSchema.validate(bad))
  }

  test("type names round trip") {
    for (dt <- MptSchema.supportedTypes)
      assert(MptSchema.typeOf(MptSchema.typeName(dt)) == dt)
  }
}
