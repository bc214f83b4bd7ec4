package repro.core

import org.scalacheck.{Gen, Test}
import org.scalacheck.Prop.{forAll, propBoolean}
import org.scalacheck.util.Pretty
import repro.SparkSpec
import repro.core.fmatrix.{FactorizedMatrix, FeatureColumn}
import repro.core.frep.HierRelation
import repro.core.model._
import scala.util.Random

/** The sufficient-statistics EM against the n-vector EM it replaced
  * (`NVectorEM`), on random factorised matrices.
  *
  * Tolerance is 1e-8 relative. The property draws full-rank designs with
  * n >= 2m: on rank-deficient or interpolating ones the 1e-8 ridge turns
  * rounding into ~1e-8 relative changes of the fit, and the n-vector EM
  * then disagrees with itself across the factorised and dense backends
  * (72 of 1,500 drawn cases beyond 1e-8). A collinear fixture with a
  * single district is checked on its own.
  */
class EMReferenceSpec extends SparkSpec {

  test("sufficient-statistics EM matches the n-vector EM (property)") {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(100).withWorkers(1),
      forAll(EMReferenceSpec.genCase) { c =>
        val bk = new FactorizedBackend(c.fm)
        val fit = MultiLevelEM.fit(bk, c.y, c.iters, reCols = c.reCols)
        val ref = NVectorEM.fit(bk, c.y, c.iters, reCols = c.reCols)
        // beta is not compared: under collinear columns the ridge leaves it
        // ill-determined while X beta is not.
        val p = MultiLevelEM.predict(bk, fit)
        val pRef = MultiLevelEM.predict(bk, ref)
        val scale = pRef.map(math.abs).max
        val predDiff = p.zip(pRef).map { case (a, b) => math.abs(a - b) }.max
        val sigmaScale = ref.sigma.a.map(math.abs).max
        val sigmaDiff = fit.sigma.maxAbsDiff(ref.sigma)
        (predDiff <= 1e-8 * scale && math.abs(fit.sigma2 - ref.sigma2) <= 1e-8 * ref.sigma2 &&
          sigmaDiff <= 1e-8 * sigmaScale) :|
          s"prediction diff $predDiff (max |prediction| $scale), sigma2 ${fit.sigma2} vs ${ref.sigma2}, " +
            s"Sigma diff $sigmaDiff (max |Sigma| $sigmaScale)"
      })
    assert(res.passed, Pretty.pretty(res))
  }

  test("sufficient-statistics EM matches the n-vector EM on a collinear design") {
    // One district: its feature is constant, so X^T X is singular and the
    // ridge alone fixes beta.
    val rng = new Random(31)
    val time = HierRelation("time", Seq("t"), (0 until 6).map(t => Seq(f"t$t%02d")))
    val geo = HierRelation("geo", Seq("d", "v"), (0 until 8).map(v => Seq("d0", s"d0-v$v")))
    val vals = scala.collection.mutable.HashMap.empty[String, Double]
    def feat(v: String): Double = vals.getOrElseUpdate(v, rng.nextGaussian())
    val fm = new FactorizedMatrix(Vector(time, geo), Vector(
      FeatureColumn.Intercept, FeatureColumn("ft", 0, 0, feat), FeatureColumn("fd", 1, 0, feat),
      FeatureColumn("fv", 1, 1, feat)))
    val y = fm.xv(Array(1.0, 0.5, -0.3, 0.8)).map(_ + rng.nextGaussian() * 0.3)
    val bk = new FactorizedBackend(fm)
    for (reCols <- Seq(None, Some(Array(0)))) {
      val p = MultiLevelEM.predict(bk, MultiLevelEM.fit(bk, y, 12, reCols = reCols))
      val pRef = MultiLevelEM.predict(bk, NVectorEM.fit(bk, y, 12, reCols = reCols))
      val scale = pRef.map(math.abs).max
      p.zip(pRef).foreach { case (a, b) => assert(math.abs(a - b) <= 1e-8 * scale, s"$a vs $b") }
    }
  }
}

object EMReferenceSpec {
  final case class Case(fm: FactorizedMatrix, y: Array[Double], iters: Int, reCols: Option[Array[Int]]) {
    override def toString: String =
      s"Case(hiers=${fm.hiers.map(h => s"${h.depth}x${h.total}").mkString(",")}, m=${fm.m}, " +
        s"clusters=${fm.numClusters}, iters=$iters, reCols=${reCols.map(_.mkString("[", ",", "]"))})"
  }

  /** One hierarchy of depth 1-3 whose fan-out is mostly 1 with the odd 2
    * or 4, so cluster sizes are skewed and some attributes are constant
    * within a parent (collinear columns).
    */
  private def genTree(h: Int): Gen[HierRelation] = for {
    depth <- Gen.choose(1, 3)
    roots <- Gen.choose(1, 4)
    fanouts <- Gen.listOfN(20, Gen.frequency(5 -> 1, 2 -> 2, 1 -> 4))
  } yield {
    val fan = fanouts.iterator // at most 4 + 16 parents draw a fan-out
    var paths = Vector.tabulate(roots)(i => Vector(s"h${h}v$i"))
    for (_ <- 1 until depth)
      paths = paths.flatMap(p => Vector.tabulate(fan.next())(i => p :+ s"${p.last}.$i"))
    HierRelation(s"h$h", Vector.tabulate(depth)(l => s"h${h}a$l"), paths)
  }

  val genCase: Gen[Case] = (for {
    hs <- Gen.choose(1, 3)
    hiers <- Gen.sequence[Vector[HierRelation], HierRelation]((0 until hs).map(genTree))
    seed <- Gen.long
    featureOdds <- Gen.choose(0.3, 1.0)
    emptyFrac <- Gen.frequency(1 -> Gen.const(0.0), 3 -> Gen.choose(0.0, 0.95))
    iters <- Gen.choose(0, 10)
    reMode <- Gen.choose(0, 2)
  } yield {
    val rng = new Random(seed)
    // The k-th featured attribute of a hierarchy (top-down) has at least
    // k + 1 distinct values, so the design has full column rank.
    val featureCols = hiers.zipWithIndex.flatMap { case (h, hi) =>
      val picked = (0 until h.depth).foldLeft(Vector.empty[Int]) { (acc, a) =>
        if (rng.nextDouble() < featureOdds && h.rows.map(_(a)).distinct.size >= acc.size + 2) acc :+ a else acc
      }
      picked.map { a =>
        val vals = scala.collection.mutable.HashMap.empty[String, Double]
        FeatureColumn(s"f$hi.$a", hi, a, v => vals.getOrElseUpdate(v, rng.nextGaussian() * 3))
      }
    }
    val fm = new FactorizedMatrix(hiers, FeatureColumn.Intercept +: featureCols)
    val beta = Array.fill(fm.m)(rng.nextGaussian() * 2)
    val y = fm.xv(beta)
    fm.clusterRanges.foreach { case (s, l) =>
      val shift = rng.nextGaussian() * 1.5
      (s until s + l).foreach(i => y(i) += shift + rng.nextGaussian() * 0.5)
    }
    // Empty groups take one default value, as `Reptile.buildY` fills them.
    val default = if (rng.nextBoolean()) 0.0 else rng.nextGaussian() * 5
    y.indices.foreach(i => if (rng.nextDouble() < emptyFrac) y(i) = default)
    val reCols = reMode match {
      case 0 => None
      case 1 => Some(Array(0))
      case _ => Some((0 until fm.m).filter(_ => rng.nextBoolean()).toArray).filter(_.nonEmpty).orElse(Some(Array(0)))
    }
    Case(fm, y, iters, reCols)
  }).suchThat(c => c.fm.n >= 2 * c.fm.m) // residual degrees of freedom: sigma2 stays off its floor
}
