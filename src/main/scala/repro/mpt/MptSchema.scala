package repro.mpt

import org.apache.spark.sql.types._
import repro.meta.Scalar

/** Supported column types of the mpt (micro-partitioned table) format and
  * the text field codec of its manifest.
  *
  * Partition data is binary ([[MptDataFile]]). The manifest is text: its
  * fields are tab-separated with C-style escapes for tab/newline/backslash
  * and `\N` for SQL NULL (the classic Hive/MySQL text convention).
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

  // ---- field codec -------------------------------------------------------

  val NullField = "\\N"

  def escape(s: String): String = {
    val sb = new StringBuilder(s.length)
    s.foreach {
      case '\\' => sb.append("\\\\")
      case '\t' => sb.append("\\t")
      case '\n' => sb.append("\\n")
      case '\r' => sb.append("\\r")
      case c    => sb.append(c)
    }
    sb.toString
  }

  def unescape(s: String): String = {
    val sb = new StringBuilder(s.length)
    var i = 0
    while (i < s.length) {
      val c = s.charAt(i)
      if (c == '\\' && i + 1 < s.length) {
        s.charAt(i + 1) match {
          case '\\' => sb.append('\\'); i += 2
          case 't'  => sb.append('\t'); i += 2
          case 'n'  => sb.append('\n'); i += 2
          case 'r'  => sb.append('\r'); i += 2
          case o    => sb.append(o); i += 2
        }
      } else { sb.append(c); i += 1 }
    }
    sb.toString
  }

  /** Encode a [[Scalar]] (or null) as one manifest field. */
  def encodeField(v: Scalar): String = v match {
    case null              => NullField
    case Scalar.LongV(x)   => x.toString
    case Scalar.DoubleV(x) => x.toString
    case Scalar.StringV(x) => escape(x)
    case Scalar.DateV(x)   => x.toString
    case Scalar.BoolV(x)   => x.toString
  }

  /** Decode one manifest field into a [[Scalar]] (null for SQL NULL). */
  def decodeField(s: String, dt: DataType): Scalar =
    if (s == NullField) null
    else dt match {
      case LongType | IntegerType => Scalar.LongV(s.toLong)
      case DoubleType             => Scalar.DoubleV(s.toDouble)
      case StringType             => Scalar.StringV(unescape(s))
      case DateType               => Scalar.DateV(s.toInt)
      case BooleanType            => Scalar.BoolV(s.toBoolean)
      case other                  => throw new IllegalArgumentException(s"unsupported: $other")
    }
}
