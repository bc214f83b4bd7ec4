package repro.core

import repro.SparkSpec
import repro.core.frep.{HierRelation, Seg}

class HierRelationSpec extends SparkSpec {

  private val geo = HierRelation("geo", Seq("district", "village"), Seq(
    Seq("ofla", "zata"), Seq("ofla", "adishim"), Seq("ofla", "darube"),
    Seq("raya", "fala"), Seq("raya", "dinka"),
  ))

  test("rows are sorted and distinct") {
    assert(geo.total == 5)
    assert(geo.rows == geo.rows.sorted(scala.math.Ordering.Implicits.seqOrdering[Vector, String]))
    val dup = HierRelation("d", Seq("a"), Seq(Seq("x"), Seq("x"), Seq("y")))
    assert(dup.total == 2)
  }

  test("segments are contiguous and cover all rows") {
    geo.segments.foreach { segs =>
      assert(segs.map(_.len).sum == geo.total)
      segs.sliding(2).foreach {
        case Vector(a, b) => assert(a.start + a.len == b.start)
        case _            =>
      }
    }
  }

  test("segment order matches row order") {
    assert(geo.segments(0) == Vector(Seg("ofla", 0, 3), Seg("raya", 3, 2)))
  }

  test("FD violation is rejected") {
    // village 'zata' under two districts
    val ex = intercept[IllegalArgumentException] {
      HierRelation("bad", Seq("d", "v"), Seq(Seq("a", "zata"), Seq("b", "zata"))).segments
    }
    assert(ex.getMessage.contains("FD violation"))
  }

  test("parentBlocks groups children of the most specific attribute") {
    assert(geo.parentBlocks == Vector((0, 3), (3, 2)))
    val single = HierRelation("s", Seq("a"), Seq(Seq("x"), Seq("y")))
    assert(single.parentBlocks == Vector((0, 2)))
  }

  test("rowIndexOf and blockOfPrefix") {
    assert(geo.rowIndexOf(Seq("ofla", "darube")) == geo.rows.indexOf(Vector("ofla", "darube")))
    assert(geo.blockOfPrefix(Seq("raya")) == (3, 5))
    assert(geo.blockOfPrefix(Nil) == (0, 5))
    intercept[NoSuchElementException](geo.rowIndexOf(Seq("nope", "nope")))
    intercept[IllegalArgumentException](geo.blockOfPrefix(Seq("nope")))
  }

  test("attrIndex resolves and rejects unknown attributes") {
    assert(geo.attrIndex("village") == 1)
    intercept[IllegalArgumentException](geo.attrIndex("nope"))
  }

  test("fromDataFrame extracts distinct sorted tuples") {
    import spark.implicits._
    val df = Seq(("ofla", "zata", 1.0), ("ofla", "zata", 2.0), ("raya", "fala", 3.0))
      .toDF("district", "village", "v")
    val h = HierRelation.fromDataFrame(df, "geo", Seq("district", "village"))
    assert(h.total == 2)
    assert(h.rows == Vector(Vector("ofla", "zata"), Vector("raya", "fala")))
  }

  test("empty hierarchy is rejected") {
    intercept[IllegalArgumentException](HierRelation("e", Seq("a"), Nil))
  }
}
