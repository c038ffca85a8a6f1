package repro.mpt

import org.apache.spark.sql.types._

/** Supported column types of the mpt (micro-partitioned table) format and
  * their names in the manifest ([[MptManifest]]).
  */
object MptSchema {

  val supportedTypes: Set[DataType] =
    Set(LongType, IntegerType, DoubleType, StringType, DateType, BooleanType)

  def validate(schema: StructType): Unit = {
    val bad = schema.fields.filterNot(f => supportedTypes.contains(f.dataType))
    require(bad.isEmpty, s"mpt does not support columns: ${bad.mkString(", ")}")
  }

  def typeName(dt: DataType): String = dt match {
    case LongType    => "long"
    case IntegerType => "int"
    case DoubleType  => "double"
    case StringType  => "string"
    case DateType    => "date"
    case BooleanType => "boolean"
    case other       => throw new IllegalArgumentException(s"unsupported: $other")
  }

  def typeOf(name: String): DataType = name match {
    case "long"    => LongType
    case "int"     => IntegerType
    case "double"  => DoubleType
    case "string"  => StringType
    case "date"    => DateType
    case "boolean" => BooleanType
    case other     => throw new IllegalArgumentException(s"unsupported: $other")
  }
}
