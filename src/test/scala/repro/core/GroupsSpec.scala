package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{DoubleType, StringType, StructField, StructType}
import org.scalacheck.{Gen, Test}
import org.scalacheck.Prop.forAll
import org.scalacheck.util.Pretty
import repro.SparkSpec
import repro.core.frep.HierRelation
import repro.core.reptile._
import scala.jdk.CollectionConverters._

/** `Reptile.groups`: the one Spark aggregation of a drill-down, from which
  * the hierarchy relations and the main-effect features are derived on the
  * driver.
  */
class GroupsSpec extends SparkSpec {
  import spark.implicits._

  private val dims = Vector(
    Dimension("time", Vector("year")),
    Dimension("geo", Vector("district", "village")),
    Dimension("kind", Vector("kind")),
  )

  // A null year, village and kind: each decodes to the string "null".
  private lazy val fact = Seq[(String, String, String, String, Double)](
    ("1986", "ofla", "ofla-v1", "a", 1.0), ("1986", "ofla", "ofla-v2", "b", 2.0),
    ("1987", "ofla", "ofla-v1", null, 3.0), ("1987", "raya", "raya-v1", "a", 4.0),
    ("1987", "raya", null, "a", 5.0), (null, "raya", "raya-v1", "b", 6.0),
    ("1986", "raya", "raya-v1", "b", 7.0), ("1986", "raya", "raya-v1", "b", 9.0),
  ).toDF("year", "district", "village", "kind", "sev")

  test("hierarchies from Reptile.groups equal HierRelation.fromDataFrame, null values included") {
    val layouts = Vector(
      Vector((dims(0), 1), (dims(1), 2)),
      Vector((dims(2), 1), (dims(0), 1), (dims(1), 1)),
      Vector((dims(1), 2), (dims(2), 1)),
    )
    val shared = Reptile.groups(fact, layouts, "sev")
    for ((used, j) <- layouts.zipWithIndex; g <- Seq(Reptile.groups(fact, Seq(used), "sev").head, shared(j))) {
      assert(g.attrs == used.flatMap { case (d, dep) => d.attrs.take(dep) })
      assert(g.hiers.size == used.size)
      g.hiers.zip(used).foreach { case (h, (d, dep)) =>
        val ref = HierRelation.fromDataFrame(fact, d.name, d.attrs.take(dep))
        assert(h.dim == ref.dim && h.attrs == ref.attrs)
        assert(h.rows == ref.rows, s"${d.name} at depth $dep")
      }
    }
    val geo = Reptile.groups(fact, Seq(Vector((dims(1), 2))), "sev").head.hiers.head
    assert(geo.rows.contains(Vector("raya", "null")))
  }

  test("driver-side features from Reptile.groups equal the DataFrame adapter's") {
    val used = Vector((dims(0), 1), (dims(1), 2))
    val g = Reptile.groups(fact, Seq(used), "sev").head
    val statsDf = Reptile.drilldownStats(fact, g.attrs, "sev")
    for (kind <- Seq(StatKind.CountStat, StatKind.MeanStat)) {
      val driver = Featurizer.build(g.observed.view.mapValues(kind.of), g.hiers, Nil, 2.0)
      val adapter = Featurizer.build(statsDf, g.hiers, kind.col, Nil)
      assert(driver.map(_.label) == adapter.map(_.label))
      for ((a, b) <- driver.zip(adapter).tail; row <- g.hiers(a.hierIdx).rows) {
        val v = row(a.attrIdx)
        assert(a.f(v) == b.f(v), s"${a.label}($v)")
      }
    }
  }

  test("rankDim without auxiliary data starts only the group-statistics jobs") {
    val drilled = Map("time" -> 1, "geo" -> 1)
    val rank = sparkJobs(Reptile.rankDim(spark, fact, dims, drilled,
      filters = Map("year" -> "1987", "district" -> "raya"),
      complaint = Complaint(AggType.Mean, Direction.TooHigh),
      measure = "sev", targetDim = "geo", cfg = ReptileConfig(emIters = 4)))
    val stats = sparkJobs(Reptile.drilldownStats(fact, Seq("year", "district", "village"), "sev").collect())
    assert(stats > 0)
    assert(rank == stats)
  }

  test("recommend over several hierarchies starts as many Spark jobs as one rankDim") {
    val (drilled, filters) = (Map("geo" -> 1), Map("district" -> "raya"))
    val complaint = Complaint(AggType.Count, Direction.TooHigh)
    val cfg = ReptileConfig(emIters = 4)
    var out = Vector.empty[DimRankResult]
    val recommend = sparkJobs {
      out = Reptile.recommend(spark, fact, dims, drilled, filters, complaint, "sev", cfg = cfg)
    }
    assert(out.map(_.dim).toSet == Set("time", "geo", "kind"))
    val rank = sparkJobs(Reptile.rankDim(spark, fact, dims, drilled, filters, complaint, "sev", "geo", cfg = cfg))
    assert(rank > 0)
    assert(recommend == rank)
  }

  test("a group whose measure is null in every row is rejected by name") {
    val bad = fact.union(Seq[(String, String, String, String, Option[Double])](
      ("1990", "ofla", "ofla-v1", "a", None)).toDF())
    val e = intercept[IllegalArgumentException](Reptile.groups(bad, Seq(Vector((dims(0), 1))), "sev"))
    assert(e.getMessage.contains("sev") && e.getMessage.contains("1990"))
  }

  test("one groups call over several drill-downs equals one call per drill-down (property)") {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(12).withWorkers(1),
      forAll(GroupsSpec.genCase) { case GroupsSpec.Case(dims, rows, drilldowns) =>
        val schema = StructType(dims.flatMap(_.attrs).map(StructField(_, StringType)) :+ StructField("m", DoubleType))
        val df = spark.createDataFrame(rows.map(r => Row.fromSeq(r)).asJava, schema)
        val shared = Reptile.groups(df, drilldowns, "m")
        drilldowns.zip(shared).forall { case (used, g) =>
          val alone = Reptile.groups(df, Seq(used), "m").head
          def bits(s: GroupStats) = Seq(s.count, s.mean, s.std).map(java.lang.Double.doubleToLongBits)
          def hierRows(x: Groups) = x.hiers.map(h => (h.dim, h.attrs, h.rows))
          g.attrs == alone.attrs && hierRows(g) == hierRows(alone) && g.observed.keySet == alone.observed.keySet &&
            g.observed.forall { case (k, s) => bits(s) == bits(alone.observed(k)) }
        }
      })
    assert(res.passed, Pretty.pretty(res))
  }
}

object GroupsSpec {
  /** A fact table over `dims` (attribute columns, then the measure `m`)
    * and the drill-downs to evaluate on it.
    */
  final case class Case(dims: Vector[Dimension], rows: Vector[Vector[Any]], drilldowns: Vector[Vector[(Dimension, Int)]])

  /** The leaves of one hierarchy of depth 1-3: a tree whose fan-out is
    * mostly 1 with the odd 2 or 4, so group sizes are skewed. One value
    * per level may be null; as a single node, it keeps the tree an FD.
    */
  private def genTree(h: Int): Gen[(Dimension, Vector[Vector[String]])] = for {
    depth <- Gen.choose(1, 3)
    roots <- Gen.choose(1, 3)
    fanouts <- Gen.listOfN(15, Gen.frequency(5 -> 1, 2 -> 2, 1 -> 4))
    nullLevel <- Gen.option(Gen.choose(0, depth - 1))
  } yield {
    val fan = fanouts.iterator // at most 3 + 12 parents draw a fan-out
    var paths = Vector.tabulate(roots)(i => Vector(s"h${h}l0v$i"))
    for (_ <- 1 until depth)
      paths = paths.flatMap(p => Vector.tabulate(fan.next())(i => p :+ s"${p.last}.$i"))
    // A null value for the first node of `nullLevel`; its subtree keeps it.
    val leaves = nullLevel.fold(paths)(l => paths.map(p => if (p(l) == paths.head(l)) p.updated(l, null) else p))
    (Dimension(s"h$h", Vector.tabulate(depth)(l => s"h${h}a$l")), leaves)
  }

  val genCase: Gen[Case] = for {
    hs <- Gen.choose(1, 3)
    trees <- Gen.sequence[Vector[(Dimension, Vector[Vector[String]])], (Dimension, Vector[Vector[String]])](
      (0 until hs).map(genTree))
    n <- Gen.choose(1, 60)
    // Cubing a uniform draw skews rows toward the first leaves.
    picks <- Gen.listOfN(n, Gen.listOfN(hs, Gen.choose(0.0, 1.0)))
    measures <- Gen.listOfN(n, Gen.frequency(6 -> Gen.choose(-50.0, 50.0).map(Option(_)), 1 -> Gen.const(None)))
    depths <- Gen.listOfN(4, Gen.listOfN(hs, Gen.choose(0, 3)))
  } yield {
    val dims = trees.map(_._1)
    val attrRows = picks.toVector.map(_.zip(trees).toVector.flatMap { case (u, (_, leaves)) =>
      leaves(math.min((math.pow(u, 3) * leaves.size).toInt, leaves.size - 1))
    })
    // A null measure comes with a non-null twin of the same group, so no
    // group's measure is null throughout.
    val rows = attrRows.zip(measures).flatMap {
      case (a, Some(m)) => Vector(a :+ m)
      case (a, None)    => Vector(a :+ null, a :+ 1.5)
    }
    // Each drill-down takes every hierarchy to a depth in 0..its depth
    // (0 leaves it out), at least one hierarchy deep.
    val drilldowns = depths.toVector.map { ds =>
      val used = dims.zip(ds).collect { case (d, k) if math.min(k, d.attrs.size) > 0 => (d, math.min(k, d.attrs.size)) }
      if (used.isEmpty) Vector((dims.head, 1)) else used
    }
    Case(dims, rows, drilldowns)
  }
}
