package perfbench

/** Just enough JSON to hand the raw results to `run.py`. */
object Json {
  def render(v: Any): String = v match {
    case null                 => "null"
    case s: String            => quote(s)
    case b: Boolean           => b.toString
    case d: Double            => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int               => n.toString
    case n: Long              => n.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => s"${quote(k.toString)}:${render(x)}" }.mkString("{", ",", "}")
    case a: Array[_]          => render(a.toSeq)
    case s: Iterable[_]       => s.map(render).mkString("[", ",", "]")
    case other                => quote(other.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case '\t' => sb.append("\\t")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c    => sb.append(c)
    }
    sb.append('"').toString
  }
}
